"""Outside-in layer trace of the qgc kernel.

The tracer wraps public functions of each qgc module from outside the
package, in the running process only; no file under ``src/qgc`` changes.
Every wrapped call at a layer boundary records a span (function, parent
span, start, end, operation id) in memory.  The hottest scalar entry points
(``Scalar.__mul__``/``__add__`` and ``LaurentBi.gcd``) are too frequent for
one span each; their calls, time and self time are aggregated, and the time
they take is charged to the enclosing span, so that span self times still
add up.  Per-layer metrics are derived from the spans when the run ends.
"""

from __future__ import annotations

import json
import time

LAYERS = ("scalars", "linalg", "qgroup", "pairing", "repn", "center", "cli")

# Per-layer metrics, in the order they are reported, with their units.
METRICS = {
    "scalars.gcd_calls": "count",
    "scalars.gcd_s": "s",
    "scalars.gcd_trivial_frac": "ratio",
    "scalars.mul_calls": "count",
    "linalg.rref_calls": "count",
    "linalg.rref_s": "s",
    "linalg.rref_rank_frac": "ratio",
    "linalg.invert_calls": "count",
    "linalg.invert_s": "s",
    "linalg.invert_max_dim": "rows",
    "linalg.solve_s": "s",
    "linalg.solve_rows": "count",
    "linalg.solve_vars": "count",
    "qgroup.straighten_calls": "count",
    "qgroup.straighten_s": "s",
    "qgroup.ad_calls": "count",
    "qgroup.ad_s": "s",
    "qgroup.graded_basis_calls": "count",
    "qgroup.graded_basis_s": "s",
    "qgroup.graded_basis_hit_frac": "ratio",
    "pairing.gram_s": "s",
    "pairing.dual_basis_calls": "count",
    "pairing.dual_basis_s": "s",
    "pairing.dual_basis_hit_frac": "ratio",
    "pairing.word_pair_calls": "count",
    "repn.irreducible_s": "s",
    "repn.act_calls": "count",
    "repn.act_s": "s",
    "center.certify_s": "s",
    "center.trace_assembly_s": "s",
    "center.solve_ansatz_s": "s",
    "center.hc_s": "s",
    "cli.import_s": "s",
    "cli.run_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}
for _layer in LAYERS:
    METRICS[f"{_layer}.self_s"] = "s"

# Outermost inclusive time of one wrapped function -> metric name.
_INCLUSIVE = {
    "linalg.rref": "linalg.rref_s",
    "linalg.invert": "linalg.invert_s",
    "linalg.solve_unique": "linalg.solve_s",
    "qgroup.straighten": "qgroup.straighten_s",
    "qgroup.ad": "qgroup.ad_s",
    "qgroup.graded_basis": "qgroup.graded_basis_s",
    "pairing.gram": "pairing.gram_s",
    "pairing.dual_basis": "pairing.dual_basis_s",
    "repn.irreducible": "repn.irreducible_s",
    "repn.act": "repn.act_s",
    "center.centrality_failures": "center.certify_s",
    "cli.run": "cli.run_s",
}
_CALLS = {
    "linalg.rref": "linalg.rref_calls",
    "linalg.invert": "linalg.invert_calls",
    "qgroup.straighten": "qgroup.straighten_calls",
    "qgroup.ad": "qgroup.ad_calls",
    "qgroup.graded_basis": "qgroup.graded_basis_calls",
    "pairing.dual_basis": "pairing.dual_basis_calls",
    "pairing.word_pair": "pairing.word_pair_calls",
    "repn.act": "repn.act_calls",
}
_HC = ("center.hc_xi", "center.weyl_act", "center.av_expand")

ROOT_SPAN = "bench.op"


class Tracer:
    """Span recorder; install() wraps qgc, enabled gates the recording."""

    def __init__(self):
        self.enabled = False
        self.names = [ROOT_SPAN]
        self.spans = []   # [fid, parent, start, end, op, leaf_s]
        self.stack = []   # indices of open spans
        self.leaf = {}    # name -> [calls, total_s, self_s]
        self.leaf_frames = []
        self.notes = {}   # counters observed at the boundaries
        self.keys = {}    # name -> distinct cache keys seen from outside
        self.op = 0

    def note(self, key, amount=1):
        self.notes[key] = self.notes.get(key, 0) + amount

    def note_max(self, key, value):
        self.notes[key] = max(self.notes.get(key, 0), value)

    def see_key(self, name, key):
        self.keys.setdefault(name, set()).add(key)

    # -- recording -----------------------------------------------------------

    def begin_op(self, op):
        """Open the root span of one benchmark operation."""
        self.op = op
        self.enabled = True
        self._open(0)

    def end_op(self):
        self._close()
        self.enabled = False

    def _open(self, fid):
        rec = [fid, self.stack[-1] if self.stack else -1, 0.0, 0.0, self.op, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()

    def _close(self):
        end = time.perf_counter()
        self.spans[self.stack.pop()][3] = end

    def span(self, name, fn, before=None, after=None):
        """Wrapper recording one span per call of fn."""
        fid = len(self.names)
        self.names.append(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(tracer, args)
            tracer._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def leaf_call(self, name, fn, after=None):
        """Wrapper aggregating calls and time of a hot scalar entry point."""
        stats = self.leaf.setdefault(name, [0, 0.0, 0.0])
        tracer = self

        def wrapper(*args):
            if not tracer.enabled:
                return fn(*args)
            frames = tracer.leaf_frames
            frames.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args)
            finally:
                dur = time.perf_counter() - start
                inner = frames.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - inner
                if frames:
                    frames[-1] += dur
                elif tracer.stack:
                    tracer.spans[tracer.stack[-1]][5] += dur
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap the traced boundaries of every qgc layer in this process."""
        import qgc.center
        import qgc.cli
        import qgc.linalg
        import qgc.pairing
        import qgc.qgroup
        import qgc.repn
        import qgc.scalars

        Scalar = qgc.scalars.Scalar
        mul = self.leaf_call("scalars.mul", Scalar.__mul__)
        add = self.leaf_call("scalars.add", Scalar.__add__)
        Scalar.__mul__ = Scalar.__rmul__ = mul
        Scalar.__add__ = Scalar.__radd__ = add
        LaurentBi = qgc.scalars.LaurentBi
        LaurentBi.gcd = self.leaf_call("scalars.gcd", LaurentBi.gcd,
                                       after=_after_gcd)

        Algebra = qgc.qgroup.Algebra
        Algebra.straighten = self.span("qgroup.straighten", Algebra.straighten)
        Algebra.ad = self.span("qgroup.ad", Algebra.ad)
        Algebra.graded_basis = self.span("qgroup.graded_basis",
                                         Algebra.graded_basis,
                                         after=_after_graded_basis)

        modules = [qgc.scalars, qgc.linalg, qgc.qgroup, qgc.pairing,
                   qgc.repn, qgc.center, qgc.cli]
        plan = [
            (qgc.linalg, "rref", None, _after_rref),
            (qgc.linalg, "invert", None, _after_invert),
            (qgc.linalg, "solve_unique", _before_solve, None),
            (qgc.pairing, "word_pair", None, None),
            (qgc.pairing, "gram", None, None),
            (qgc.pairing, "dual_basis", None, _after_dual_basis),
            (qgc.repn, "irreducible", None, None),
            (qgc.repn, "act", None, None),
            (qgc.center, "centrality_failures", None, None),
            (qgc.center, "central_from_trace", None, None),
            (qgc.center, "central_by_solve", None, None),
            (qgc.center, "hc_xi", None, None),
            (qgc.center, "weyl_act", None, None),
            (qgc.center, "av_expand", None, None),
            (qgc.cli, "run", None, None),
        ]
        for home, attr, before, after in plan:
            original = getattr(home, attr)
            layer = home.__name__.rsplit(".", 1)[1]
            wrapped = self.span(f"{layer}.{attr}", original, before, after)
            # modules that did `from .x import name` hold their own reference
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)

    # -- results ------------------------------------------------------------------

    def dump(self, path):
        """Write the recorded spans and leaf aggregates as one JSON file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "leaf": self.leaf}, fh)

    def raw(self):
        """Additive per-layer aggregates of everything recorded so far."""
        names = self.names
        spans = self.spans
        out = dict.fromkeys(_RAW_KEYS, 0)
        out.update(self.notes)
        for name, (calls, total, _) in self.leaf.items():
            out[f"{name}_calls"] = calls
            out[f"{name}_s"] = total
        out["scalars.self_s"] = sum(s for _, _, s in self.leaf.values())
        for name, keys in self.keys.items():
            out[f"{name}_keys"] = len(keys)

        child = [0.0] * len(spans)
        for rec in spans:
            if rec[1] >= 0:
                child[rec[1]] += rec[3] - rec[2]
        for k, rec in enumerate(spans):
            name = names[rec[0]]
            dur = rec[3] - rec[2]
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) \
                + dur - child[k] - rec[5]
            if name in _CALLS:
                out[_CALLS[name]] += 1
            ancestors = _ancestor_names(spans, names, k)
            if name in _INCLUSIVE and name not in ancestors:
                out[_INCLUSIVE[name]] += dur
            if name in _HC and not ancestors.intersection(_HC):
                out["center.hc_s"] += dur
            # assembly and ansatz times exclude their nested certification
            # and, for the solver, the linear solve
            if name == "center.central_from_trace":
                out["center.trace_assembly_s"] += dur
            if name == "center.central_by_solve":
                out["center.solve_ansatz_s"] += dur
            if name == "center.centrality_failures" \
                    and "center.central_from_trace" in ancestors:
                out["center.trace_assembly_s"] -= dur
            if name in ("center.centrality_failures", "linalg.solve_unique") \
                    and "center.central_by_solve" in ancestors:
                out["center.solve_ansatz_s"] -= dur
        out.pop("bench.self_s", None)
        return out


def _ancestor_names(spans, names, k):
    seen = set()
    parent = spans[k][1]
    while parent >= 0:
        seen.add(names[spans[parent][0]])
        parent = spans[parent][1]
    return seen


_RAW_KEYS = (
    list(_INCLUSIVE.values()) + list(_CALLS.values())
    + [f"{layer}.self_s" for layer in LAYERS]
    + ["center.hc_s", "center.trace_assembly_s", "center.solve_ansatz_s",
       "scalars.gcd_calls", "scalars.gcd_s", "scalars.mul_calls",
       "scalars.gcd_trivial", "linalg.rref_rows", "linalg.rref_pivots",
       "linalg.invert_max_dim", "linalg.solve_rows", "linalg.solve_vars",
       "qgroup.graded_basis_keys", "pairing.dual_basis_keys",
       "cli.stdout_bytes"]
)


def _after_gcd(tracer, args, result):
    if result.is_one():
        tracer.note("scalars.gcd_trivial")


def _after_rref(tracer, args, result):
    tracer.note("linalg.rref_rows", len(args[0]))
    tracer.note("linalg.rref_pivots", len(result[1]))


def _after_invert(tracer, args, result):
    tracer.note_max("linalg.invert_max_dim", len(args[0]))


def _before_solve(tracer, args):
    equations, variables = args[0], args[1]
    tracer.note("linalg.solve_vars", len(variables))

    def counted():
        for row in equations:
            tracer.note("linalg.solve_rows")
            yield row

    return (counted(), variables) + tuple(args[2:])


def _after_graded_basis(tracer, args, result):
    alg, sign, nu = args[0], args[1], args[2]
    tracer.see_key("qgroup.graded_basis", (id(alg), sign, tuple(nu)))


def _after_dual_basis(tracer, args, result):
    tracer.see_key("pairing.dual_basis", (id(args[0]), tuple(args[1])))


def combine(raws):
    """Sum raw aggregates of several processes (maxima stay maxima)."""
    out = {}
    for raw in raws:
        for key, val in raw.items():
            if key.endswith("max_dim"):
                out[key] = max(out.get(key, 0), val)
            else:
                out[key] = out.get(key, 0) + val
    return out


def derive(raw):
    """Per-layer metrics of one workload iteration from its raw aggregates.

    trace.overhead_frac and cli.import_s are measured by the runner and
    left at 0 here.
    """
    def frac(num, den):
        return num / den if den else 0.0

    out = {name: raw.get(name, 0) for name in METRICS}
    out["scalars.gcd_trivial_frac"] = frac(raw.get("scalars.gcd_trivial", 0),
                                           raw.get("scalars.gcd_calls", 0))
    out["linalg.rref_rank_frac"] = frac(raw.get("linalg.rref_pivots", 0),
                                        raw.get("linalg.rref_rows", 0))
    calls = raw.get("qgroup.graded_basis_calls", 0)
    out["qgroup.graded_basis_hit_frac"] = \
        1 - frac(raw.get("qgroup.graded_basis_keys", 0), calls) if calls else 0.0
    calls = raw.get("pairing.dual_basis_calls", 0)
    out["pairing.dual_basis_hit_frac"] = \
        1 - frac(raw.get("pairing.dual_basis_keys", 0), calls) if calls else 0.0
    return out
