"""Import contract: ``afem`` loads no scipy module that scipy.sparse does
not load by itself.

Each check runs in a fresh interpreter, because this process has long
since imported whatever the other tests needed.
"""

import json
import os
import subprocess
import sys

import afem

CONTRACT = r"""
import json, sys

def scipy_modules():
    return {m for m in sys.modules if m == "scipy" or m.startswith("scipy.")}

import numpy, scipy.sparse, scipy.sparse.linalg
baseline = scipy_modules()

import afem, afem.assembly, afem.cli, afem.driver, afem.estimator
import afem.oracles
from afem.driver import AfemConfig, Problem, run
from afem.oracles import manufactured_sin2, scipy_univariate_ders

records = run(AfemConfig(degree=2, max_dofs=60),
              Problem.from_manufactured(manufactured_sin2()))
after_run = scipy_modules()

value = scipy_univariate_ders(2, 3, 1, 0.3, 1)
print(json.dumps({
    "iterations": len(records),
    "extra": sorted(after_run - baseline),
    "interpolate_before_oracle": "scipy.interpolate" in after_run,
    "interpolate_after_oracle": "scipy.interpolate" in sys.modules,
    "value": value,
}))
"""


def test_afem_loads_no_scipy_beyond_sparse():
    src = os.path.dirname(os.path.dirname(afem.__file__))
    proc = subprocess.run([sys.executable, "-c", CONTRACT],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["iterations"] > 1
    assert out["extra"] == []
    assert not out["interpolate_before_oracle"]
    # the oracle imports scipy.interpolate on call and still works
    assert out["interpolate_after_oracle"]
    from scipy.interpolate import BSpline
    from afem.splines import knot_vector
    c = [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert out["value"] == float(BSpline(knot_vector(2, 3), c, 3)(0.3, nu=1))
