"""Smoke coverage of the full property-check catalogue at reduced counts;
the acceptance suite reruns the heavy subsets at full scale."""

import json
import os
import subprocess
import sys
from pathlib import Path

from curvopt import checks
from curvopt.objectives import validate_constants

from instances import frechet_instance

SRC = Path(__file__).resolve().parents[1] / "src"

LIBRARY = ["curvopt.axgd", "curvopt.baselines", "curvopt.geomap", "curvopt.manifolds",
           "curvopt.objectives", "curvopt.reductions"]

# Reports the curvopt modules that ``import curvopt`` loads, then reaches
# the harness, ``checks`` and ``bench``, through the package.
_IMPORT_PROBE = """
import json, sys
import curvopt
loaded = sorted(m for m in sys.modules if m.startswith("curvopt."))
n = len(curvopt.checks.ALL_CHECKS)
from curvopt import bench
print(json.dumps([loaded, n, "curvopt.checks" in sys.modules, bench.main is curvopt.bench.main]))
"""


def test_import_curvopt_loads_checks_on_first_access():
    # ... and bench too: ``import curvopt`` loads the six library modules only.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    r = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    loaded, n, after, bench_reached = json.loads(r.stdout)
    assert loaded == LIBRARY
    assert n == len(checks.ALL_CHECKS) and after
    assert bench_reached


def test_all_checks_pass_on_reduced_grid():
    results = checks.run_grid(checks.ALL_CHECKS, n=400, seed=99)
    bad = [str(r) for r in results if not r.ok]
    assert not bad, "\n".join(bad)


def test_validate_constants_flags_bad_declarations(space):
    center, F = frechet_instance(space, 2, 0.8, 3, seed=31)
    good = validate_constants(F, center, 0.8, n=500)
    assert good["smoothness"] <= 1e-12
    assert good["strong_convexity"] <= 1e-12

    class Lying:
        # same oracle, impossible declared constants
        def __init__(self, inner_obj):
            self.space = inner_obj.space
            self.smoothness = inner_obj.smoothness / 50
            self.strong_convexity = inner_obj.strong_convexity
            self.value_c = inner_obj.value_c
            self.grad_c = inner_obj.grad_c

    bad = validate_constants(Lying(F), center, 0.8, n=500)
    assert bad["smoothness"] > 1e-6
