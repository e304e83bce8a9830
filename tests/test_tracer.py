"""The benchmark's layer tracer still finds every name it wraps."""

import os
import subprocess
import sys
from pathlib import Path

import qgc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SCRIPT = """
import tracer
from qgc import pairing, repn
from qgc.qgroup import Algebra

t = tracer.Tracer()
t.install()
alg = Algebra(2)
t.begin_op(1)
pairing.dual_basis(alg, (1, 1))
repn.irreducible(alg, (2, 0))
t.end_op()
raw = t.raw()
assert raw["pairing.dual_basis_calls"] == 1, raw
assert raw["qgroup.graded_basis_calls"] > 0, raw
assert raw["repn.irreducible_s"] > 0, raw
"""


def test_tracer_installs_and_records():
    # the tracer wraps qgc names through getattr, so a renamed or moved
    # entry point breaks traced benchmark runs
    src = os.path.dirname(os.path.dirname(qgc.__file__))
    path = os.pathsep.join(filter(None, [str(PERFBENCH), src,
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
