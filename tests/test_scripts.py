import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_bias_table_smoke(tmp_path):
    script = _load("run_bias_table")
    out = tmp_path / "bias.csv"
    script.main(["--replicates", "2", "--n", "300", "--methods", "nm,mh", "--burn-in", "50",
                 "--iterations", "100", "--thinning", "50", "--workers", "1", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,beta,p,method,parameter,truth,mean_estimate,abs_bias_pct,sd,se_mean"
    rows = [line.split(",") for line in lines[1:]]
    settings = len(script.SETTINGS) * len(script.P_VALUES)
    assert settings == 9
    assert len(rows) == settings * 2 * 8
    assert {row[3] for row in rows} == {"nm", "mh"}


def test_tail_compare_smoke(tmp_path):
    script = _load("tail_compare")
    out = tmp_path / "tails"
    script.main(["--n", "300", "--replicates", "2", "--workers", "2", "--out-dir", str(out)])
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(
        f"tail_{direction}_{kind}.csv" for direction in ("in", "out") for kind in ("rep0", "rep1", "limit")
    )
    for name in names:
        assert (out / name).read_text().startswith("m,value\n")
