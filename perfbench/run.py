"""Benchmark of the qgc kernel and CLI.

Run from the root of a qgc checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seconds S       # every workload in turn
    python3 perfbench/run.py --self-check [--workload NAME]
    python3 perfbench/run.py --record-golden

Every workload iteration runs in a fresh child process; children start one
at a time from this process.  The seed is passed to each child as
PYTHONHASHSEED; the inputs themselves are fixed.  An iteration's outputs are
checked against oracles (inside the child, outside its timed region) and
against the golden digests in golden.json (here).  With --trace 0 the last
stdout line reports the end-to-end metrics, with every time normalized to a
reference CPU speed (see speed.py); with --trace 1 it reports the per-layer
metrics of the traced run (see tracer.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402

KERNEL_WORKLOADS = ("trace-r2", "solve-r2", "bases-r3")
WORKLOADS = KERNEL_WORKLOADS + ("cli-corpus",)
RANK = {"trace-r2": 2, "solve-r2": 2, "bases-r3": 3, "cli-corpus": 2}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "cmd_p50_s": "s"}
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
SELF_CHECK_SEEDS = (0, 5)

# One invocation of every subcommand, rank-3 where it stays cheap, plus one
# usage error (exit 2) and one structured QgcError (exit 1).
CLI_CORPUS = (
    "root-data --n 3",
    "graded-dim --n 3 --sign + --nu 2,2,2",
    "graded-dim --n 3 --sign - --nu 1,2,1",
    "pairing-gram --n 2 --nu 1,2",
    "rosso-check --n 3 --height 2 --trials 4 --seed 7",
    "verma --n 2 --lambda-fund 1,0 --mu-fund 0,1 --depth 2 --check-qint",
    "irrep --n 3 --lambda-fund 1,0,0",
    "verma --n 3 --lambda-fund 1,0,0 --depth 1 --check-qint",
    "central --n 2 --lambda-alpha 1,1 --method trace --verify",
    "central --n 2 --lambda-fund 0,1",
    "hc-image --n 2 --lambda-alpha 1,1",
    "parity-kernel --n 3 --bound 2 --mode lambda",
    "selftest --fast",
    "graded-dim --n 2 --sign + --nu 1,2,3",
)


# -- child processes ------------------------------------------------------------

class Finished:
    """Outcome of one child process."""

    def __init__(self, code, events, stdout, stderr, seconds, rss_mb):
        self.code = code
        self.events = events      # event name -> (JSON object, seconds after spawn)
        self.stdout = stdout
        self.stderr = stderr
        self.seconds = seconds    # spawn to exit
        self.rss_mb = rss_mb

    def problem(self):
        """Why the child's output cannot be trusted, or None."""
        if self.code == 0:
            return None
        tail = self.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"child exited with {self.code}: {' '.join(tail)}"


def child_env(seed):
    env = dict(os.environ)
    env.pop("QGC_CACHE_DIR", None)
    env["PYTHONPATH"] = str(Path.cwd() / "src")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def spawn(argv, env):
    """Run argv to exit, timestamping each JSON event line of its stdout."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    events, lines = {}, []
    try:
        for line in proc.stdout:
            lines.append(line)
            if line.startswith(b'{"event"'):
                obj = json.loads(line)
                events[obj["event"]] = (obj, time.perf_counter() - start)
    finally:
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return Finished(proc.returncode, events, b"".join(lines), err[0],
                    seconds, usage.ru_maxrss / 1024)


def child_argv(*args):
    return [sys.executable, str(BENCH_DIR / "child.py"), *map(str, args)]


def setup_sample(env, n):
    done = spawn(child_argv("setup", n), env)
    if done.problem() or "setup" not in done.events:
        raise RuntimeError(f"set-up child failed: {done.problem()}")
    obj = done.events["setup"][0]
    return obj["import_s"], obj["setup_s"], obj["raw_setup_s"]


# -- judging outputs ---------------------------------------------------------------

def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def judge_kernel(workload, done, golden):
    """Failures [(operation, reason)] of one kernel iteration.

    Digests are looked up by operation name alone, so solve-r2's central
    elements must equal the trace construction's recorded ones.
    """
    expected = golden["ops"][workload]
    if "checked" not in done.events:
        reason = done.problem() or "child printed no checked line"
        return [(name, reason) for name in expected]
    checked = {op["name"]: op for op in done.events["checked"][0]["ops"]}
    failures = []
    for name in expected:
        op = checked.pop(name, None)
        if op is None:
            failures.append((name, "not run"))
        elif op["errors"]:
            failures.append((name, "; ".join(op["errors"])))
        elif op["digest"] != golden["digests"][name]:
            failures.append((name, "output digest differs from golden"))
    failures += [(name, "unexpected operation") for name in checked]
    return failures


def judge_command(args, code, stdout, golden):
    """Failure reason of one CLI command, or None."""
    want = golden["cli"].get(args)
    if want is None:
        return "no golden output"
    if code != want["exit"]:
        return f"exit {code}, golden {want['exit']}"
    if hashlib.sha256(stdout).hexdigest() != want["stdout_sha256"]:
        return "stdout differs from golden"
    return None


# -- one iteration of a workload ------------------------------------------------------

def kernel_iteration(workload, env, golden, spans=None):
    done = spawn(child_argv("kernel", workload, *([spans] if spans else [])), env)
    failures = judge_kernel(workload, done, golden)
    result = {"attempted": len(golden["ops"][workload]), "failures": failures,
              "wall_s": None, "raw_wall_s": None, "speed": None, "rss_mb": None,
              "cmd_s": [], "trace": None, "outputs": {}}
    if "done" in done.events:
        obj, at = done.events["done"]
        result.update(wall_s=obj["wall_s"], raw_wall_s=obj["raw_wall_s"],
                      speed=obj["speed"], rss_mb=obj["rss_mb"],
                      cmd_s=[(at - obj["sampling_s"]) * obj["speed"]])
    if "checked" in done.events:
        obj = done.events["checked"][0]
        result["trace"] = obj["raw"]
        result["outputs"] = {op["name"]: op["digest"] for op in obj["ops"]}
    return result


def run_command(args, env, traced=False, spans=None):
    """Run one qgc command in a fresh process under the speed probe.

    Returns a dict with the exit code, the stdout bytes, the spawn-to-exit
    seconds, the probe's speed and sampling time, the peak RSS and, when
    traced, the layer aggregates.
    """
    if traced:
        done = spawn(child_argv("cli", spans, "--", *args.split()), env)
        obj = done.events.get("cli", (None, 0))[0]
        code, stdout = (obj["exit"], obj["stdout"].encode()) if obj else (done.code, b"")
    else:
        done = spawn([sys.executable, str(BENCH_DIR / "speed.py"), "qgc.cli",
                      *args.split()], env)
        code, stdout = done.code, done.stdout
        lines = done.stderr.strip().splitlines()
        obj = json.loads(lines[-1]) if lines and lines[-1].startswith(b'{"speed"') else None
    speed, sampling_s = (obj["speed"], obj["sampling_s"]) if obj else (1.0, 0.0)
    return {"code": code, "stdout": stdout, "raw_seconds": done.seconds,
            "speed": speed, "sampling_s": sampling_s, "rss_mb": done.rss_mb,
            "trace": obj.get("raw") if obj else None}


def corpus_pass(env, golden, traced=False, spans_dir=None):
    ran, failures, outputs = [], [], {}
    for k, args in enumerate(CLI_CORPUS):
        spans = spans_dir / f"spans-cli-corpus-{k}.json" if traced else None
        cmd = run_command(args, env, traced, spans)
        reason = judge_command(args, cmd["code"], cmd["stdout"], golden)
        if reason:
            failures.append((args, reason))
        outputs[args] = [cmd["code"], hashlib.sha256(cmd["stdout"]).hexdigest()]
        ran.append(cmd)
    traces = [cmd["trace"] for cmd in ran if cmd["trace"] is not None]
    # one command is too short for a steady speed; the pass's median is not
    speed = statistics.median(cmd["speed"] for cmd in ran)
    cmd_s = [(cmd["raw_seconds"] - cmd["sampling_s"]) * speed for cmd in ran]
    return {"attempted": len(CLI_CORPUS), "failures": failures,
            "wall_s": sum(cmd_s),
            "raw_wall_s": sum(cmd["raw_seconds"] for cmd in ran),
            "speed": speed,
            "rss_mb": max(cmd["rss_mb"] for cmd in ran),
            "cmd_s": cmd_s,
            "trace": tracer.combine(traces) if traced else None,
            "outputs": outputs}


def iteration(workload, env, golden, traced=False):
    spans_dir = Path.cwd() / ".bench_out"
    if traced:
        spans_dir.mkdir(exist_ok=True)
    if workload == "cli-corpus":
        return corpus_pass(env, golden, traced, spans_dir)
    spans = spans_dir / f"spans-{workload}.json" if traced else None
    return kernel_iteration(workload, env, golden, spans)


# -- a measured run ---------------------------------------------------------------------

def measure(workload, seed, seconds, trace, golden):
    """Run the workload for `seconds` and return the result object."""
    env = child_env(seed)
    setups = [setup_sample(env, RANK[workload]) for _ in range(SETUP_SAMPLES)]
    baseline = iteration(workload, env, golden) if trace else None
    iterations = []
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < seconds:
        iterations.append(iteration(workload, env, golden, traced=bool(trace)))

    runs = iterations + ([baseline] if baseline else [])
    attempted = sum(it["attempted"] for it in runs)
    failures = [f for it in runs for f in it["failures"]]
    for name, reason in failures:
        print(f"FAILED {workload} {name}: {reason}", file=sys.stderr)
    measured = [it for it in iterations if it["wall_s"] is not None]
    if trace:
        layers = [tracer.derive(it["trace"]) for it in measured if it["trace"]]
        values = {name: statistics.median(m[name] for m in layers) if layers else 0.0
                  for name in tracer.METRICS}
        values["cli.import_s"] = statistics.median(s[0] for s in setups)
        if layers and baseline["wall_s"]:
            traced_wall = statistics.median(it["wall_s"] for it in measured)
            values["trace.overhead_frac"] = traced_wall / baseline["wall_s"] - 1
    elif measured:
        values = {
            "wall_s": statistics.median(it["wall_s"] for it in measured),
            "setup_s": statistics.median(s[1] for s in setups),
            "peak_rss_mb": statistics.median(it["rss_mb"] for it in measured),
            "cmd_p50_s": statistics.median(c for it in measured for c in it["cmd_s"]),
        }
    else:  # every iteration failed before its timed operations ended
        values = dict.fromkeys(END_TO_END, 0.0)
    units = tracer.METRICS if trace else END_TO_END
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
        "iterations": len(iterations),
        "raw_wall_s": _median(it["raw_wall_s"] for it in measured),
        "raw_setup_s": statistics.median(s[2] for s in setups),
        "speed": _median(it["speed"] for it in measured),
    }


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def print_report(workload, result):
    """Human-readable table, then the result as the last stdout line."""
    print(f"workload {workload}: {result['iterations']} iteration(s), "
          f"{result['attempted']} operations attempted, {result['failed']} failed, "
          f"fail_frac {result['failed'] / result['attempted']:.4f}")
    print(f"  CPU speed {result['speed']:.3f} of the reference; before "
          f"normalizing, wall {result['raw_wall_s']:.4g} s and set-up "
          f"{result['raw_setup_s']:.4g} s")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    if "scalars.self_s" in result["metrics"]:
        selfs = sorted(((result["metrics"][f"{layer}.self_s"]["value"], layer)
                        for layer in tracer.LAYERS), reverse=True)
        print("  self time by layer: " + ", ".join(
            f"{layer} {value:.3f}s" for value, layer in selfs))
        inclusive = sorted(((m["value"], name) for name, m in result["metrics"].items()
                            if m["unit"] == "s" and not name.endswith("self_s")),
                           reverse=True)
        print("  largest inclusive times: " + ", ".join(
            f"{name} {value:.3f}s" for value, name in inclusive[:4]))
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))


# -- self-check and golden recording -------------------------------------------------

def self_check(workloads, golden):
    """Traced iterations under two hash seeds must agree exactly.

    Outputs must be byte-identical and every *_calls count identical; the
    timings are free to differ.  Returns the number of disagreements.
    """
    problems = 0
    for workload in workloads:
        seen = []
        for seed in SELF_CHECK_SEEDS:
            it = iteration(workload, child_env(seed), golden, traced=True)
            counts = {k: v for k, v in tracer.derive(it["trace"] or {}).items()
                      if k.endswith("_calls")}
            seen.append((it["outputs"], counts, it["failures"]))
        (out_a, calls_a, fail_a), (out_b, calls_b, fail_b) = seen
        diffs = [f"output {k}" for k in sorted(set(out_a) | set(out_b))
                 if out_a.get(k) != out_b.get(k)]
        diffs += [f"{k} {calls_a.get(k)} != {calls_b.get(k)}"
                  for k in sorted(set(calls_a) | set(calls_b))
                  if calls_a.get(k) != calls_b.get(k)]
        diffs += [f"failed {name}: {reason}" for name, reason in fail_a + fail_b]
        problems += len(diffs)
        seeds = " and ".join(map(str, SELF_CHECK_SEEDS))
        print(f"self-check {workload} (seeds {seeds}): "
              + ("ok" if not diffs else "; ".join(diffs)))
        for k, v in sorted(calls_a.items()):
            print(f"  {k:34s} {v}")
    return problems


def record_golden():
    """Write golden.json from one untraced iteration of every workload.

    Refuses to record when an oracle check fails or when the solver's
    central elements differ from the trace construction's.
    """
    env = child_env(0)
    digests, ops = {}, {}
    for workload in KERNEL_WORKLOADS:
        done = spawn(child_argv("kernel", workload), env)
        if "checked" not in done.events:
            raise SystemExit(f"{workload}: {done.problem()}")
        checked = done.events["checked"][0]["ops"]
        ops[workload] = [op["name"] for op in checked]
        for op in checked:
            if op["errors"]:
                raise SystemExit(f"{workload} {op['name']}: {op['errors']}")
            if digests.setdefault(op["name"], op["digest"]) != op["digest"]:
                raise SystemExit(f"{workload} {op['name']}: differs from "
                                 f"the trace construction")
    cli = {}
    for args in CLI_CORPUS:
        cmd = run_command(args, env)
        cli[args] = {"exit": cmd["code"],
                     "stdout_sha256": hashlib.sha256(cmd["stdout"]).hexdigest()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"ops": ops, "digests": digests, "cli": cli}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "qgc" / "__init__.py").is_file():
        print("run from the root of a qgc checkout (src/qgc not found)",
              file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden()
        return 0
    golden = load_golden()
    if args.self_check:
        chosen = [args.workload] if args.workload else WORKLOADS
        return 1 if self_check(chosen, golden) else 0
    correct = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        result = measure(workload, args.seed, args.seconds, args.trace, golden)
        print_report(workload, result)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
