import hashlib
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest

jsonschema = pytest.importorskip("jsonschema")

from qgc import center, cli, repn
from qgc.errors import InternalInconsistency
from qgc.qgroup import Algebra
from qgc.rootdata import RootSystemB
from test_rootdata import weyl_group


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


def load_schema(name):
    text = resources.files("qgc").joinpath(f"schemas/{name}.json").read_text()
    return json.loads(text)


def validate(name, report):
    jsonschema.validate(report, load_schema(name))


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())["cli"]


@pytest.mark.parametrize("args", sorted(GOLDEN))
def test_stdout_matches_golden(capsys, args):
    # the byte-level stdout contract of the benchmark corpus, in-process
    try:
        code = cli.main(args.split())
    except SystemExit as exc:  # argparse usage errors exit with 2
        code = exc.code
    out = capsys.readouterr().out.encode()
    assert code == GOLDEN[args]["exit"]
    assert hashlib.sha256(out).hexdigest() == GOLDEN[args]["stdout_sha256"]


def test_root_data(capsys):
    code, report = run_cli(capsys, ["root-data", "--n", "2"])
    assert code == 0
    validate("root-data", report)
    assert report["payload"]["rho"] == [3, 1]
    assert report["payload"]["weyl_order"] == 8


def test_root_data_weyl_order_without_the_group(capsys):
    # 2^n n! signed permutations; the group itself is only built for small n
    for n in range(1, 5):
        code, report = run_cli(capsys, ["root-data", "--n", str(n)])
        assert code == 0
        assert report["payload"]["weyl_order"] == len(weyl_group(RootSystemB(n)))
    start = time.perf_counter()
    code, report = run_cli(capsys, ["root-data", "--n", "9"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert report["payload"]["weyl_order"] == 185_794_560


def test_graded_dim(capsys):
    code, report = run_cli(capsys, ["graded-dim", "--n", "2", "--sign", "+",
                                    "--nu", "2,1"])
    assert code == 0
    validate("graded-dim", report)
    assert report["payload"]["dim"] == 2
    assert report["payload"]["kostant"] == 2


def test_pairing_gram(capsys):
    code, report = run_cli(capsys, ["pairing-gram", "--n", "2", "--nu", "1,1"])
    assert code == 0
    validate("pairing-gram", report)
    assert report["payload"]["dim"] == 2
    assert report["payload"]["nonsingular"] is True


def test_rosso_check(capsys):
    code, report = run_cli(capsys, ["rosso-check", "--n", "2", "--height", "2",
                                    "--trials", "10", "--seed", "7"])
    assert code == 0
    validate("rosso-check", report)
    assert report["status"] == "pass"
    assert report["payload"]["failures"] == []


def test_rosso_check_deterministic(capsys):
    argv = ["rosso-check", "--n", "2", "--height", "2",
            "--trials", "5", "--seed", "3"]
    cli.main(argv)
    out1 = capsys.readouterr().out
    cli.main(argv)
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_verma_with_qint_check(capsys):
    code, report = run_cli(capsys, ["verma", "--n", "2", "--lambda-fund", "1,0",
                                    "--mu-fund", "0,1", "--depth", "2",
                                    "--check-qint"])
    assert code == 0
    validate("verma", report)
    assert report["status"] == "pass"


def test_irrep(capsys):
    code, report = run_cli(capsys, ["irrep", "--n", "2", "--lambda-fund", "1,0"])
    assert code == 0
    validate("irrep", report)
    assert report["payload"]["dim"] == 5
    assert report["payload"]["freudenthal_match"] is True


def test_central_and_hc_image(capsys):
    code, report = run_cli(capsys, ["central", "--n", "2",
                                    "--lambda-alpha", "1,1",
                                    "--method", "trace", "--verify"])
    assert code == 0
    validate("central", report)
    assert report["payload"]["verified"] is True
    assert len(report["payload"]["hc_image"]) == 5

    code, report = run_cli(capsys, ["hc-image", "--n", "2",
                                    "--lambda-alpha", "1,1"])
    assert code == 0
    validate("hc-image", report)
    assert report["payload"]["weyl_invariant"] is True


def test_central_verify_certifies_once(capsys):
    # the construction certifies its element; --verify runs no second check
    with mock.patch.object(center, "centrality_failures",
                           side_effect=center.centrality_failures) as failures:
        code, report = run_cli(capsys, ["central", "--n", "2",
                                        "--lambda-alpha", "1,1",
                                        "--method", "trace", "--verify"])
    assert code == 0 and report["payload"]["verified"] is True
    assert failures.call_count == 1


def test_parity_kernel(capsys):
    code, report = run_cli(capsys, ["parity-kernel", "--n", "1", "--bound", "2",
                                    "--mode", "lambda"])
    assert code == 0
    validate("parity-kernel", report)
    kernel = report["payload"]["kernel"]
    assert {"eta": [1], "phi": [1]} in kernel

    code, report = run_cli(capsys, ["parity-kernel", "--n", "2", "--bound", "2",
                                    "--mode", "full"])
    assert code == 0
    assert report["payload"]["kernel"] == []


def test_selftest_fast(capsys):
    code, report = run_cli(capsys, ["selftest", "--fast"])
    assert code == 0
    validate("selftest", report)
    assert report["status"] == "pass"


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        cli.parse(["central", "--n", "2", "--lambda-alpha", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.parse(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["root-data", "--n", "0"],
    ["verma", "--n", "2", "--lambda-fund", "1,0", "--depth", "-1"],
    ["parity-kernel", "--n", "2", "--bound", "0"],
    ["rosso-check", "--n", "2", "--trials", "-3"],
    ["rosso-check", "--n", "2", "--height", "-1"],
    ["irrep", "--n", "2", "--lambda-alpha", "1/0,0"],
    ["verma", "--n", "2", "--lambda-fund", "1,0", "--mu-alpha", "0,1/0", "--depth", "1"],
])
def test_input_limits_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("weight", [["--mu-fund", "-1,0"], ["--mu-alpha", "-1/2,0"]])
def test_negative_weight_is_a_value(weight, capsys):
    # argparse takes only a bare number such as -1 as a value; -1,0 must not
    # read as an option, and both spellings give the same report
    argv = ["verma", "--n", "2", "--lambda-fund", "1,0", "--depth", "1"]
    outs = []
    for spelling in (weight, [f"{weight[0]}={weight[1]}"]):
        assert cli.main(argv + spelling) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("flag", ["--lambda-alpha", "--lambda-fund"])
def test_negative_lambda_is_not_dominant(flag, capsys):
    code, report = run_cli(capsys, ["central", "--n", "2", flag, "-1,0"])
    assert code == 1
    assert report["payload"]["error"] == "NotDominant"


def test_weight_argument_validation(capsys):
    # alpha coordinates outside the weight lattice are rejected as a failure
    code, report = run_cli(capsys, ["irrep", "--n", "2",
                                    "--lambda-alpha", "1/3,1"])
    assert code == 1
    assert report["status"] == "fail"


def test_off_lattice_alpha_is_a_bad_argument(capsys):
    # named by its own error class, with the coordinates as the option takes them
    code, report = run_cli(capsys, ["central", "--n", "2",
                                    "--lambda-alpha", "1/2,1/2"])
    assert code == 1
    assert report["payload"] == {
        "error": "BadArgument",
        "message": "alpha coordinates 1/2,1/2 do not give a lattice weight"}


def test_forked_certificate_prints_the_report_once():
    # stdout piped, so block-buffered: a forked check that flushed it would
    # print the report twice
    args = "central --n 2 --lambda-alpha 1,1 --method trace --verify"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-m", "qgc.cli", *args.split()],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          env=env, timeout=120, check=False)
    assert done.returncode == GOLDEN[args]["exit"]
    assert done.stdout.count(b"\n") == 1
    assert hashlib.sha256(done.stdout).hexdigest() == GOLDEN[args]["stdout_sha256"]


def test_internal_inconsistency_is_structured(monkeypatch, capsys):
    # a product formula that disagrees with the quotient is a bug, reported
    # as a QgcError that is also an ArithmeticError, never as a traceback
    monkeypatch.setattr(RootSystemB, "weyl_dim", lambda self, lam: 4)
    with pytest.raises(InternalInconsistency) as exc:
        repn.irreducible(Algebra(2), (2, 0))
    assert isinstance(exc.value, ArithmeticError)
    code, report = run_cli(capsys, ["irrep", "--n", "2", "--lambda-fund", "1,0"])
    assert code == 1
    assert report["status"] == "fail"
    assert report["payload"]["error"] == "InternalInconsistency"
