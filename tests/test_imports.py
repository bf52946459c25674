"""``import hybridnet`` stays light: scipy loads only when a function that
needs it runs.  Each check runs in a fresh interpreter, because the test
session itself has scipy loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_package_import_loads_no_scipy_optimize_or_special():
    out = _run(
        "import json, sys\n"
        "import hybridnet, hybridnet.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
    )
    loaded = json.loads(out)
    assert not [m for m in loaded if m.startswith(("scipy.optimize", "scipy.special"))], loaded


def test_lazily_imported_functions_keep_their_values():
    # values of the same calls with scipy imported at module level
    out = _run(
        "import json\n"
        "from hybridnet import HybridParams, SimulationConfig, approx_score_solve, degree_counts\n"
        "from hybridnet import limit_pmf, simulate\n"
        "from hybridnet.degrees import nb_pmf\n"
        "th = HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7)\n"
        "pmf = limit_pmf(th, m_max=30)\n"
        "counts = degree_counts(simulate(SimulationConfig(params=th, n_edges=5000, seed=11))[0])\n"
        "roots = [approx_score_solve(counts, (0.1, 0.8, 0.1), d, p=0.8) for d in ('in', 'out')]\n"
        "print(json.dumps({\n"
        "    'psi_in': pmf.psi_in[[0, 1, 5, 30]].tolist(),\n"
        "    'psi_out': pmf.psi_out[[0, 1, 5, 30]].tolist(),\n"
        "    'nb': [nb_pmf(2.5, 0.3, 7), nb_pmf(0.7, 0.9, 0)],\n"
        "    'roots': [[r.delta_tilde, r.delta] for r in roots],\n"
        "}))\n"
    )
    assert json.loads(out) == {
        "psi_in": [0.03783783783783783, 0.050450450450450435, 0.009179232622259025, 0.00022211354658333276],
        "psi_out": [0.042696629213483134, 0.05289847867157201, 0.008327173791232732, 0.00020784137822601909],
        "nb": [0.07228291902393498, 0.928901697685371],
        "roots": [[2.733039639900033, 1.1864317119200267], [1.9332262411805043, 0.5465809929444037]],
    }


def test_every_public_name_resolves():
    # the benchmark's span instrumentation looks up every name in __all__
    import hybridnet

    assert [name for name in hybridnet.__all__ if not hasattr(hybridnet, name)] == []
    assert len(set(hybridnet.__all__)) == len(hybridnet.__all__)
