import importlib.util
from pathlib import Path

from hybridnet.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_bias_table_smoke(tmp_path):
    script = _load("run_bias_table")
    chain = ["--burn-in", "50", "--iterations", "100", "--thinning", "50"]
    texts = []
    for workers in ("1", "2"):
        out = tmp_path / f"bias_w{workers}.csv"
        script.main(["--replicates", "2", "--n", "300", "--methods", "nm,mh", *chain,
                     "--workers", workers, "--out", str(out)])
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    lines = texts[0].splitlines()
    assert lines[0] == "alpha,beta,p,method,parameter,truth,mean_estimate,abs_bias_pct,sd,se_mean"
    rows = [line.split(",") for line in lines[1:]]
    settings = len(script.SETTINGS) * len(script.P_VALUES)
    assert settings == 9
    assert len(rows) == settings * 2 * 8
    assert {row[3] for row in rows} == {"nm", "mh"}

    # the Table-1 setting's rows are the table command's rows
    table = tmp_path / "table.csv"
    code = main(["table", "--alpha", "0.1", "--beta", "0.8", "--p", "0.8", "--din", "1.3",
                 "--dout", "0.7", "--n", "300", "--replicates", "2", "--seed", "0",
                 "--methods", "nm,mh", *chain, "--out", str(table)])
    assert code == 0
    setting = [",".join(row[3:]) for row in rows if row[:3] == ["0.1", "0.8", "0.8"]]
    assert setting == table.read_text().splitlines()[1:]


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
