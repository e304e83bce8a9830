"""Checks of the benchmark itself.

Run from the root of a qgc checkout:

    python3 -m pytest perfbench/tests/check_bench.py

The file name keeps these checks out of the repository's default test run.
The traced-run test runs one traced iteration of every workload and takes
about two minutes.
"""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# metrics that must be nonzero in one traced iteration of each workload,
# one or more per layer that the workload runs
LAYER_WORK = {
    "trace-r2": ["scalars.gcd_calls", "scalars.mul_calls", "linalg.rref_calls",
                 "qgroup.straighten_calls", "qgroup.ad_calls",
                 "qgroup.graded_basis_calls", "pairing.dual_basis_calls",
                 "pairing.word_pair_calls", "repn.irreducible_s",
                 "repn.act_calls", "center.certify_s",
                 "center.trace_assembly_s", "center.hc_s"],
    "solve-r2": ["scalars.gcd_calls", "linalg.solve_s", "linalg.solve_rows",
                 "linalg.solve_vars", "qgroup.straighten_calls",
                 "qgroup.ad_calls", "pairing.dual_basis_calls",
                 "repn.irreducible_s", "center.certify_s",
                 "center.solve_ansatz_s"],
    "bases-r3": ["scalars.gcd_calls", "linalg.rref_calls", "linalg.invert_calls",
                 "linalg.invert_s", "linalg.invert_max_dim",
                 "qgroup.graded_basis_calls", "pairing.gram_s",
                 "pairing.dual_basis_calls", "pairing.word_pair_calls",
                 "repn.irreducible_s"],
    "cli-corpus": ["scalars.gcd_calls", "linalg.rref_calls",
                   "qgroup.graded_basis_calls", "qgroup.ad_calls",
                   "pairing.dual_basis_calls", "repn.irreducible_s",
                   "center.certify_s", "cli.run_s", "cli.stdout_bytes"],
}
# metrics of layers a workload does not run
IDLE = {"bases-r3": ["qgroup.straighten_calls", "qgroup.ad_calls",
                     "linalg.solve_rows", "cli.run_s"]}


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


@pytest.fixture(scope="module")
def golden():
    return run.load_golden()


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def fake_spawn(golden, workload):
    """A spawn() whose kernel child reproduces the golden outputs."""
    ops = [{"name": name, "digest": golden["digests"][name], "errors": []}
           for name in golden["ops"][workload]]
    events = {"setup": ({"import_s": 0.3, "setup_s": 0.31, "raw_setup_s": 0.32}, 0.4),
              "done": ({"wall_s": 5.0, "raw_wall_s": 5.1, "speed": 0.98,
                        "sampling_s": 0.02, "rss_mb": 99.0}, 5.5),
              "checked": ({"ops": ops, "raw": None}, 5.9)}

    def spawn(argv, env):
        return run.Finished(0, copy.deepcopy(events), b"", b"", 6.0, 99.0)

    return spawn


def test_golden_outputs_judge_clean(golden, monkeypatch):
    monkeypatch.setattr(run, "spawn", fake_spawn(golden, "trace-r2"))
    result = run.measure("trace-r2", 0, 0, 0, golden)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(golden["ops"]["trace-r2"])


def test_tampered_golden_digest_fails(golden, monkeypatch):
    monkeypatch.setattr(run, "spawn", fake_spawn(golden, "solve-r2"))
    tampered = copy.deepcopy(golden)
    tampered["digests"]["central (2, 2)"] = "0" * 64
    result = run.measure("solve-r2", 0, 0, 0, tampered)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_tampered_kernel_digest_fails(golden, monkeypatch):
    spawn = fake_spawn(golden, "bases-r3")

    def tampering(argv, env):
        done = spawn(argv, env)
        done.events["checked"][0]["ops"][3]["digest"] = "f" * 64
        return done

    monkeypatch.setattr(run, "spawn", tampering)
    result = run.measure("bases-r3", 0, 0, 0, golden)
    assert result["failed"] == 1 and not result["correct"]


def test_tampered_command_stdout_fails(golden, monkeypatch):
    corpus = ("root-data --n 3", "graded-dim --n 2 --sign + --nu 1,2,3")
    monkeypatch.setattr(run, "CLI_CORPUS", corpus)
    clean = run.measure("cli-corpus", 0, 0, 0, golden)
    assert clean["correct"] and clean["attempted"] == 2

    real_spawn = run.spawn

    def tampering(argv, env):
        done = real_spawn(argv, env)
        if "qgc.cli" in argv:
            done.stdout += b" "
        return done

    monkeypatch.setattr(run, "spawn", tampering)
    result = run.measure("cli-corpus", 0, 0, 0, golden)
    assert result["failed"] == 2 and not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_oracles_catch_wrong_outputs():
    from qgc import center, pairing
    from qgc.qgroup import Algebra
    from qgc.scalars import ONE
    alg = Algebra(2)
    nu = (1, 1)
    value = child.bases_and_dual(alg, nu)
    assert child.check_dual_basis(alg, nu, value)[1] == []
    plus, minus, pair = value
    coeffs = [list(row) for row in pair.coeffs]
    coeffs[0][0] = coeffs[0][0] + ONE
    bad = pairing.DualBasisPair(nu, pair.e_words, pair.f_words, coeffs)
    assert child.check_dual_basis(alg, nu, (plus, minus, bad))[1]

    z = center.central_from_trace(alg, (2, 0)).element
    image, expansion = child.hc_chain(alg, (2, 0), z)
    assert child.check_hc(alg, (2, 0), (image, expansion))[1] == []
    skewed = dict(image)
    skewed[((1, 1), (-1, -1))] = ONE + ONE
    assert child.check_hc(alg, (2, 0), (skewed, expansion))[1]


def test_metric_names_and_units():
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.METRICS


def test_report_prints_every_metric_with_unit(golden, monkeypatch, capsys):
    monkeypatch.setattr(run, "spawn", fake_spawn(golden, "trace-r2"))
    run.print_report("trace-r2", run.measure("trace-r2", 0, 0, 0, golden))
    lines = capsys.readouterr().out.splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    for m in spec()["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"])
                   for line in lines[:-1]), m["name"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_layer_metric(golden, workload):
    result = run.measure(workload, 0, 0, 1, golden)
    assert result["correct"], result
    metrics = result["metrics"]
    for m in spec()["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert metrics["cli.import_s"]["value"] > 0
    for name in LAYER_WORK[workload]:
        assert metrics[name]["value"] > 0, name
    for name in IDLE.get(workload, []):
        assert metrics[name]["value"] == 0, name
