"""The run time needs numpy alone: ``import hybridnet`` and the functions
that once used scipy load no scipy module, and the package and its CLI run
with scipy blocked.  Each check runs in a fresh interpreter, because the
test session itself has scipy loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

# The calls that used scipy.special or scipy.optimize before the runtime was
# numpy-only: the Table-1 limit pmf (its truncation doubles to 204,800), the
# negative binomial pmf, the quadrature oracle and the approximate score root.
NUMPY_ONLY_CALLS = (
    "from hybridnet import HybridParams, SimulationConfig, approx_score_solve, degree_counts\n"
    "from hybridnet import limit_pmf, limit_pmf_quadrature, simulate\n"
    "from hybridnet.degrees import nb_pmf\n"
    "th = HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7)\n"
    "assert limit_pmf(th).truncation_m == 204_800\n"
    "assert 0.0 < nb_pmf(2.5, 0.3, 7) < 1.0\n"
    "assert limit_pmf_quadrature(th, range(5))[0].shape == (5,)\n"
    "counts = degree_counts(simulate(SimulationConfig(params=th, n_edges=2000, seed=11))[0])\n"
    "assert approx_score_solve(counts, (0.1, 0.8, 0.1), 'in', p=0.8).delta_tilde > 0.0\n"
)


def _run(code: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_package_import_loads_no_scipy_optimize_or_special():
    # neither the import nor the calls that once needed scipy load any of it
    out = _run(
        "import json, sys\n"
        "import hybridnet, hybridnet.cli\n"
        + NUMPY_ONLY_CALLS
        + "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
    )
    assert json.loads(out) == []


# prints the loaded modules of the process pool and of its result transport
POOL_MODULES = (
    "print(json.dumps(sorted(m for m in sys.modules\n"
    "    if m.split('.')[0] in ('multiprocessing', 'mmap') or m == 'concurrent.futures.process')))\n"
)


def test_package_import_loads_no_process_pool():
    # the pool's modules load only when a run asks for more than one worker
    out = _run("import json, sys\nimport hybridnet, hybridnet.cli\n" + POOL_MODULES)
    assert json.loads(out) == []


def test_single_replicate_starts_no_pool():
    # the pool never has more workers than replicates: one runs in-process
    out = _run(
        "import json, sys\n"
        "from hybridnet import HybridParams, SimulationConfig, simulate_replicates\n"
        "th = HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7)\n"
        "assert len(simulate_replicates(SimulationConfig(params=th, n_edges=50), 1, worker_count=4)) == 1\n"
        + POOL_MODULES
    )
    assert json.loads(out) == []


def test_runtime_runs_with_scipy_blocked(tmp_path):
    # with None in sys.modules, any import of scipy or a submodule raises
    # ImportError, which no CLI command catches
    out = _run(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        + NUMPY_ONLY_CALLS
        + "import json\n"
        "from pathlib import Path\n"
        "from hybridnet.cli import main\n"
        "tmp = Path(sys.argv[1])\n"
        "params = ['--alpha', '0.1', '--beta', '0.8', '--p', '0.8', '--din', '1.3', '--dout', '0.7']\n"
        "edges = str(tmp / 'sim' / 'replicate_000.edges')\n"
        "chain = ['--burn-in', '200', '--iterations', '400', '--thinning', '20']\n"
        "codes = [\n"
        "    main(['simulate', *params, '--n', '500', '--out-dir', str(tmp / 'sim')]),\n"
        "    main(['classify', '--input', edges, '--out', str(tmp / 'labelled.edges')]),\n"
        "    main(['ccdf', '--input', edges, '--out', str(tmp / 'ccdf.json')]),\n"
        "    main(['fit', '--input', edges, '--method', 'integrated', *chain,\n"
        "          '--out', str(tmp / 'est.json')]),\n"
        "    main(['limit-pmf', *params, '--out', str(tmp / 'pmf.csv')]),\n"
        "    main(['table', *params, '--n', '300', '--replicates', '2', '--methods', 'nm,integrated',\n"
        "          *chain, '--out', str(tmp / 'table.csv')]),\n"
        "]\n"
        "print(json.dumps(codes))\n",
        str(tmp_path),
    )
    assert json.loads(out.splitlines()[-1]) == [0] * 6
    assert json.loads((tmp_path / "ccdf.json").read_text())[0]["m"] == 0
    assert (tmp_path / "pmf.csv").read_text().startswith("m,psi_in,psi_out\n")


def test_numpy_only_functions_keep_their_values():
    # values of the numpy-only limit pmf (log1p ratio recurrence), nb_pmf
    # (math.lgamma) and approximate score root (bisection)
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
        "psi_in": [0.03783783783783784, 0.05045045045045044, 0.009179232622259018, 0.00022211354658333433],
        "psi_out": [0.04269662921348313, 0.05289847867157203, 0.00832717379123272, 0.00020784137822602],
        "nb": [0.07228291902393492, 0.928901697685371],
        "roots": [[2.733039639900168, 1.1864317119201346], [1.9332262411811185, 0.5465809929448948]],
    }


def test_every_public_name_resolves():
    # the benchmark's span instrumentation looks up every name in __all__
    import hybridnet

    assert [name for name in hybridnet.__all__ if not hasattr(hybridnet, name)] == []
    assert len(set(hybridnet.__all__)) == len(hybridnet.__all__)
