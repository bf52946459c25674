import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hybridnet import (
    EdgeLog,
    MhConfig,
    NelderMeadConfig,
    SimulationConfig,
    ccdf,
    export,
    fit,
    fit_nelder_mead,
    parse_edge_file,
    replay,
    simulate,
    simulate_replicates,
)
from hybridnet.cli import (
    FIXED_START,
    SUMMARY_HEADER,
    main,
    replicate_estimates,
    sampler_seed,
    summarize_estimates,
    summary_lines,
)
from hybridnet.degrees import degree_counts_from_arrays
from hybridnet.model import HybridParams

TABLE1 = ["--alpha", "0.1", "--beta", "0.8", "--p", "0.8", "--din", "1.3", "--dout", "0.7"]


def run(argv):
    return main(argv)


class TestSimulateCommand:
    def test_writes_replicates_and_manifest(self, tmp_path):
        out = tmp_path / "runs"
        code = run(["simulate", *TABLE1, "--n", "500", "--replicates", "3",
                    "--seed", "7", "--out-dir", str(out)])
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == [
            "manifest.json", "replicate_000.edges", "replicate_001.edges", "replicate_002.edges",
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["replicates"] == 3
        assert manifest["params"]["alpha"] == 0.1
        assert len(manifest["replicate_seeds"]) == 3
        log = parse_edge_file(out / "replicate_000.edges")
        assert len(log) == 500

    def test_identical_bytes_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["simulate", *TABLE1, "--n", "300", "--replicates", "1",
                        "--seed", "9", "--out-dir", str(out)]) == 0
        assert (a / "replicate_000.edges").read_bytes() == (b / "replicate_000.edges").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_extended_scenario_frequencies(self, tmp_path):
        out = tmp_path / "ext"
        code = run(["simulate", "--alpha", "0.1", "--beta", "0.7", "--p", "0.8",
                    "--din", "1.3", "--dout", "0.7", "--xi", "0.05", "--eta", "0.05",
                    "--n", "10000", "--replicates", "1", "--seed", "3", "--out-dir", str(out)])
        assert code == 0
        log = parse_edge_file(out / "replicate_000.edges")
        for label, prob in ((4, 0.05), (5, 0.05)):
            freq = sum(1 for r in log if r.scenario == label) / len(log)
            assert abs(freq - prob) < 3 * math.sqrt(prob * (1 - prob) / len(log))

    def test_invalid_params_exit_code(self, tmp_path):
        code = run(["simulate", "--alpha", "0.0", "--beta", "1.0", "--p", "0.5",
                    "--din", "1.0", "--dout", "1.0", "--n", "10",
                    "--out-dir", str(tmp_path / "x")])
        assert code == 2

    def test_explicit_gamma_flag(self, tmp_path):
        out = tmp_path / "g"
        code = run(["simulate", "--alpha", "0.2", "--beta", "0.3", "--gamma", "0.5",
                    "--p", "0.5", "--din", "1.0", "--dout", "1.0",
                    "--n", "100", "--replicates", "1", "--out-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"]["gamma"] == 0.5
        # an inconsistent explicit gamma is a validation error
        assert run(["simulate", "--alpha", "0.2", "--beta", "0.3", "--gamma", "0.9",
                    "--p", "0.5", "--din", "1.0", "--dout", "1.0",
                    "--n", "10", "--out-dir", str(tmp_path / "bad")]) == 2


@pytest.fixture(scope="module")
def simulated_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert run(["simulate", *TABLE1, "--n", "4000", "--replicates", "1",
                "--seed", "11", "--out-dir", str(out)]) == 0
    return out


class TestFitCommand:
    def test_nm_fit_recovers_frequencies(self, simulated_dir, tmp_path):
        est_path = tmp_path / "est.json"
        code = run(["fit", "--input", str(simulated_dir / "replicate_000.edges"),
                    "--method", "nm", "--out", str(est_path)])
        assert code == 0
        payload = json.loads(est_path.read_text())
        log = parse_edge_file(simulated_dir / "replicate_000.edges")
        n1 = sum(1 for r in log if r.scenario == 1)
        assert payload["estimate"]["alpha"] == pytest.approx(n1 / len(log), abs=1e-9)
        assert payload["converged"] is True
        # the search's held coordinates, null when none is held
        start = HybridParams.fill_gamma(1 / 3, 1 / 3, p=0.5, delta_in=1.0, delta_out=1.0)
        result = fit_nelder_mead(replay(log), NelderMeadConfig(initial_point=start))
        assert payload["active_bound"] == result.diagnostics.get("active_bound") == "p = 1"
        assert payload["estimate"]["p"] == 1.0

    def test_mh_fit_writes_trace(self, simulated_dir, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code = run(["fit", "--input", str(simulated_dir / "replicate_000.edges"),
                    "--method", "mh", "--burn-in", "200", "--iterations", "1000",
                    "--thinning", "200", "--seed", "5",
                    "--out", str(tmp_path / "est.json"), "--trace-out", str(trace_path)])
        assert code == 0
        # the sampler's exact evaluations: at most one per step, the start and the point
        evals = json.loads((tmp_path / "est.json").read_text())["sampler_likelihood_evals"]
        assert isinstance(evals, int) and 2 <= evals <= 200 + 1000 + 2
        with trace_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert set(rows[0]) == {
            "iteration", "alpha", "beta", "gamma", "xi", "eta",
            "p", "delta_in", "delta_out", "log_posterior",
        }

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_trace_format_follows_suffix(self, simulated_dir, tmp_path, suffix):
        trace_path = tmp_path / f"trace{suffix}"
        code = run(["fit", "--input", str(simulated_dir / "replicate_000.edges"),
                    "--method", "mh", "--burn-in", "100", "--iterations", "400",
                    "--thinning", "100", "--seed", "5",
                    "--out", str(tmp_path / "est.json"), "--trace-out", str(trace_path)])
        assert code == 0
        text = trace_path.read_text()
        if suffix == ".json":
            rows = json.loads(text)
            assert [row["iteration"] for row in rows] == [200, 300, 400, 500]
        else:
            assert text.splitlines()[0].startswith("iteration,alpha,")
            assert len(text.splitlines()) == 1 + 4

    def test_trace_out_without_sampler_rejected(self, simulated_dir, tmp_path, capsys):
        code = run(["fit", "--input", str(simulated_dir / "replicate_000.edges"),
                    "--method", "nm", "--out", str(tmp_path / "est.json"),
                    "--trace-out", str(tmp_path / "trace.csv")])
        assert code == 2
        assert "--trace-out" in capsys.readouterr().err
        assert not (tmp_path / "est.json").exists() and not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("delta_max", ["0", "inf", "nan"])
    def test_improper_prior_bound_rejected(self, simulated_dir, tmp_path, capsys, delta_max):
        code = run(["fit", "--input", str(simulated_dir / "replicate_000.edges"),
                    "--method", "mh", "--delta-max", delta_max,
                    "--out", str(tmp_path / "est.json")])
        assert code == 2
        assert "delta_max" in capsys.readouterr().err
        assert not (tmp_path / "est.json").exists()

    @pytest.mark.parametrize("delta_max", ["0", "inf", "nan"])
    def test_integrated_rejects_improper_prior_bound(self, simulated_dir, tmp_path, capsys,
                                                     delta_max):
        code = run(["fit", "--input", str(simulated_dir / "replicate_000.edges"),
                    "--method", "integrated", "--delta-max", delta_max,
                    "--out", str(tmp_path / "est.json")])
        assert code == 2
        assert "delta_max" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--iterations", "10"], ["--thinning", "0"],
                                       ["--burn-in", "-1"], ["--delta-max", "0"],
                                       ["--delta-max", "inf"], ["--delta-max", "nan"]])
    def test_nm_ignores_sampler_settings(self, simulated_dir, tmp_path, flags):
        # the Newton search runs no sampler, so its settings cannot fail it
        est_path = tmp_path / "est.json"
        code = run(["fit", "--input", str(simulated_dir / "replicate_000.edges"),
                    "--method", "nm", *flags, "--out", str(est_path)])
        assert code == 0

        def reject(constant):  # strict JSON has no Infinity or NaN
            raise ValueError(f"not strict JSON: {constant}")

        payload = json.loads(est_path.read_text(), parse_constant=reject)
        assert payload["converged"] is True
        sampler = ("burn_in", "iterations", "thinning", "delta_max")
        assert all(payload["settings"][name] is None for name in sampler)
        assert payload["sampler_likelihood_evals"] is None

    def test_unseeded_fit_on_windowed_style_data(self, tmp_path):
        # real-data-shaped input: no seed self-loop, first record opens the graph
        path = tmp_path / "win.edges"
        path.write_text("1 2 10\n1 3 11\n2 1 12\n3 3 13\n1 2 14\n4 5 15\n2 4 16\n")
        est_path = tmp_path / "est.json"
        code = run(["fit", "--input", str(path), "--method", "nm", "--unseeded",
                    "--out", str(est_path)])
        assert code == 0
        payload = json.loads(est_path.read_text())
        assert payload["seeded_replay"] is False
        # first and sixth records introduce node pairs: eta-scenario frequency 2/7
        assert payload["estimate"]["eta"] == pytest.approx(2 / 7, abs=1e-9)

    def test_degenerate_input_exits_convergence_code(self, tmp_path):
        path = tmp_path / "tiny.edges"
        path.write_text("1 1 1\n")
        code = run(["fit", "--input", str(path), "--method", "nm",
                    "--out", str(tmp_path / "est.json")])
        assert code == 3
        payload = json.loads((tmp_path / "est.json").read_text())
        assert payload["converged"] is False
        # the scenario block sits on the regularity boundary; the kernel has no
        # information, so the Newton search stops at once
        start = HybridParams.fill_gamma(1 / 3, 1 / 3, p=0.5, delta_in=1.0, delta_out=1.0)
        result = fit_nelder_mead(replay(parse_edge_file(path)), NelderMeadConfig(initial_point=start))
        assert "boundary" in result.diagnostics
        assert result.diagnostics["restarts"] == 0 and result.diagnostics["iterations"] == 1

    def test_integrated_on_pa_dominant_extended_data(self, tmp_path):
        # wikipedia-style setting: p very close to one, small offsets, xi > 0
        out = tmp_path / "wiki"
        assert run(["simulate", "--alpha", "0.014", "--beta", "0.745", "--p", "0.999",
                    "--din", "0.186", "--dout", "0.149", "--xi", "0.006",
                    "--n", "8000", "--replicates", "1", "--seed", "17",
                    "--out-dir", str(out)]) == 0
        est_path = tmp_path / "wiki.json"
        code = run(["fit", "--input", str(out / "replicate_000.edges"),
                    "--method", "integrated", "--burn-in", "2000", "--iterations", "4000",
                    "--thinning", "200", "--seed", "23", "--out", str(est_path)])
        assert code == 0
        payload = json.loads(est_path.read_text())
        assert payload["estimate"]["p"] >= 0.99
        assert 2 <= payload["sampler_likelihood_evals"] <= 2000 + 4000 + 2


class TestTableCommand:
    def test_smoke_table(self, tmp_path):
        out = tmp_path / "table.csv"
        code = run(["table", *TABLE1, "--n", "800", "--replicates", "3",
                    "--methods", "nm", "--seed", "29", "--out", str(out)])
        assert code == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8  # one row per parameter
        by_name = {r["parameter"]: r for r in rows}
        assert float(by_name["alpha"]["truth"]) == 0.1
        assert float(by_name["p"]["sd"]) >= 0.0

    def test_parallel_table_matches_serial_loop(self, tmp_path):
        """Whole replicates in a 2-worker pool give the bytes of the plain
        loop: simulate all, then replay and fit each, method by method."""
        out = tmp_path / "table.csv"
        chain = ["--burn-in", "200", "--iterations", "400", "--thinning", "20"]
        code = run(["table", *TABLE1, "--n", "1500", "--replicates", "3", "--seed", "5",
                    "--methods", "nm,integrated", *chain, "--workers", "2", "--out", str(out)])
        assert code == 0
        truth = HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7)
        config = SimulationConfig(params=truth, n_edges=1500, seed=5)
        all_stats = [replay(o.log) for o in simulate_replicates(config, 3, worker_count=1)]
        nm_config = NelderMeadConfig(initial_point=FIXED_START)
        lines = ["method,parameter,truth,mean_estimate,abs_bias_pct,sd,se_mean"]
        for method in ("nm", "integrated"):
            estimates = []
            for idx, stats in enumerate(all_stats):
                mh_config = MhConfig(burn_in=200, iterations=400, thinning=20, seed=sampler_seed(5, idx))
                estimates.append(fit(stats, method, mh_config, nm_config).point)
            lines += [
                f"{method},{r['parameter']},{r['truth']:.17g},{r['mean_estimate']:.17g},"
                f"{r['abs_bias_pct']:.17g},{r['sd']:.17g},{r['se_mean']:.17g}"
                for r in summarize_estimates(estimates, truth)
            ]
        assert out.read_text() == "\n".join(lines) + "\n"

    def test_out_format_follows_suffix(self, tmp_path):
        """CSV for any suffix but .json: the bytes of ``SUMMARY_HEADER`` and
        ``summary_lines``; JSON for .json: one object per CSV row."""
        chain = ["--burn-in", "100", "--iterations", "200", "--thinning", "10"]
        flags = [*TABLE1, "--n", "600", "--replicates", "2", "--seed", "3", "--methods", "nm,mh", *chain]
        for name in ("t.csv", "t.json", "t.txt"):
            assert run(["table", *flags, "--out", str(tmp_path / name)]) == 0
        truth = HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7)
        config = SimulationConfig(params=truth, n_edges=600, seed=3)
        estimates = replicate_estimates(config, 2, ["nm", "mh"], 100, 200, 10)
        lines = [SUMMARY_HEADER]
        for method in ("nm", "mh"):
            lines += summary_lines(method, estimates[method], truth)
        assert (tmp_path / "t.csv").read_text() == "\n".join(lines) + "\n"
        assert (tmp_path / "t.txt").read_bytes() == (tmp_path / "t.csv").read_bytes()
        rows = [
            {"method": method, **row}
            for method in ("nm", "mh")
            for row in summarize_estimates(estimates[method], truth)
        ]
        text = (tmp_path / "t.json").read_text()
        assert text == json.dumps(rows, sort_keys=True, indent=2) + "\n"
        assert [list(row) for row in json.loads(text)] == [sorted(SUMMARY_HEADER.split(","))] * 16

    def test_unknown_method_fails_before_simulating(self, tmp_path, monkeypatch):
        import hybridnet.cli as cli

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before validating --methods")

        monkeypatch.setattr(cli, "simulate", no_simulation)
        code = run(["table", *TABLE1, "--n", "100", "--replicates", "2",
                    "--methods", "nm,bogus", "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert not (tmp_path / "t.csv").exists()

    def test_workers_below_one_rejected(self, tmp_path, capsys):
        code = run(["table", *TABLE1, "--n", "100", "--replicates", "2",
                    "--workers", "0", "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "worker count" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_bias_definition(self):
        truth = HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7)
        rows = summarize_estimates([truth, truth, truth], truth)
        for row in rows:
            if row["truth"] != 0.0:
                assert row["abs_bias_pct"] == pytest.approx(0.0, abs=1e-10)
            assert row["sd"] == pytest.approx(0.0, abs=1e-12)


class TestCurveCommands:
    def test_ccdf_round_trip(self, simulated_dir, tmp_path):
        out = tmp_path / "ccdf.csv"
        code = run(["ccdf", "--input", str(simulated_dir / "replicate_000.edges"),
                    "--direction", "in", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "m,value"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] <= 1.0

    def test_limit_pmf_rejects_p_zero(self, tmp_path, capsys):
        code = run(["limit-pmf", "--alpha", "0.1", "--beta", "0.8", "--p", "0.0",
                    "--din", "1.3", "--dout", "0.7", "--out", str(tmp_path / "pmf.csv")])
        assert code == 2
        assert "p > 0" in capsys.readouterr().err

    def test_limit_pmf_csv(self, tmp_path):
        out = tmp_path / "pmf.csv"
        code = run(["limit-pmf", *TABLE1, "--m-max", "20", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("m,psi_in,psi_out\n")

    @pytest.mark.parametrize("suffix", [".csv", ".json", ".txt"])
    def test_limit_pmf_format_follows_suffix(self, tmp_path, suffix):
        out = tmp_path / f"pmf{suffix}"
        # node-heavy: the mass is captured at m <= 200, where Table-1 needs 204,800
        node_heavy = ["--alpha", "0.45", "--beta", "0.1", "--p", "0.6", "--din", "1.3", "--dout", "0.7"]
        code = run(["limit-pmf", *node_heavy, "--m-max", "20", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        if suffix == ".json":
            rows = json.loads(text)
            assert [row["m"] for row in rows[:3]] == [0, 1, 2]
            assert set(rows[0]) == {"m", "psi_in", "psi_out"}
        else:
            assert text.startswith("m,psi_in,psi_out\n")

    @pytest.mark.parametrize("suffix", [".csv", ".json", ".txt"])
    def test_ccdf_format_follows_suffix(self, simulated_dir, tmp_path, suffix):
        out = tmp_path / f"ccdf{suffix}"
        code = run(["ccdf", "--input", str(simulated_dir / "replicate_000.edges"),
                    "--direction", "out", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        if suffix == ".json":
            rows = json.loads(text)
            assert rows[0]["m"] == 0 and set(rows[0]) == {"m", "value"}
        else:
            assert text.startswith("m,value\n")

    def test_empirical_tail_tracks_limit_tail(self, tmp_path):
        # single large network: node-normalised empirical tail vs limit tail
        th_flags = ["--alpha", "0.45", "--beta", "0.1", "--p", "0.6",
                    "--din", "1.3", "--dout", "0.7"]
        out = tmp_path / "big"
        assert run(["simulate", *th_flags, "--n", "100000", "--replicates", "1",
                    "--seed", "41", "--out-dir", str(out)]) == 0
        ccdf_path = tmp_path / "ccdf.csv"
        pmf_path = tmp_path / "pmf.csv"
        assert run(["ccdf", "--input", str(out / "replicate_000.edges"),
                    "--direction", "in", "--out", str(ccdf_path)]) == 0
        assert run(["limit-pmf", *th_flags, "--m-max", "400", "--out", str(pmf_path)]) == 0
        emp = {}
        for line in ccdf_path.read_text().strip().splitlines()[1:]:
            m, v = line.split(",")
            emp[int(m)] = float(v)
        ms, psi_in = [], []
        for line in pmf_path.read_text().strip().splitlines()[1:]:
            cells = line.split(",")
            ms.append(int(cells[0]))
            psi_in.append(float(cells[1]))
        psi_in = np.array(psi_in)
        node_rate = 0.45 + 0.45  # nodes per edge
        limit_tail = (psi_in.sum() - np.cumsum(psi_in)) / node_rate
        sup_diff = max(abs(emp.get(m, 0.0) - limit_tail[m]) for m in range(11))
        assert sup_diff < 0.01

    def test_classify_round_trip(self, simulated_dir, tmp_path):
        labeled_path = tmp_path / "labeled.edges"
        original = parse_edge_file(simulated_dir / "replicate_000.edges")
        bare_path = tmp_path / "bare.edges"
        bare_path.write_text(
            "".join(f"{r.source} {r.target} {r.time}\n" for r in original)
        )
        code = run(["classify", "--input", str(bare_path), "--out", str(labeled_path)])
        assert code == 0
        labeled = parse_edge_file(labeled_path)
        assert [r.scenario for r in labeled] == [r.scenario for r in original]


class TestLargeIds:
    """Sparse ids near 10**12: ``a -> b``, ``c -> b``, ``b -> a``."""

    BASE = 10**12

    @pytest.fixture
    def sparse_log(self, tmp_path):
        a, b, c = self.BASE + 7, self.BASE + 3, self.BASE + 11
        path = tmp_path / "sparse.edges"
        path.write_text(f"{a} {b} 1\n{c} {b} 2\n{b} {a} 3\n")
        return path

    def test_ccdf_counts_per_node(self, sparse_log, tmp_path):
        out = tmp_path / "ccdf.csv"
        # in-degrees a: 1, b: 2, c: 0
        assert run(["ccdf", "--input", str(sparse_log), "--unseeded", "--out", str(out)]) == 0
        assert out.read_text() == f"m,value\n0,{2 / 3:.17g}\n1,{1 / 3:.17g}\n"
        # the seed node 1 adds one node of in-degree 1
        assert run(["ccdf", "--input", str(sparse_log), "--out", str(out)]) == 0
        assert out.read_text() == f"m,value\n0,{3 / 4:.17g}\n1,{1 / 4:.17g}\n"
        # out-degrees a: 1, b: 1, c: 1
        assert run(["ccdf", "--input", str(sparse_log), "--unseeded", "--direction", "out",
                    "--out", str(out)]) == 0
        assert out.read_text() == "m,value\n0,1\n"

    @pytest.mark.parametrize("flags", [[], ["--unseeded"]])
    def test_ccdf_matches_the_unique_ranking(self, tmp_path, flags):
        """Ids of 2**32 and above with gaps, node 1 kept: the curves equal
        those of degrees counted on an ``np.unique`` ranking of the ids."""
        params = HybridParams.fill_gamma(0.1, 0.8, p=0.8, delta_in=1.3, delta_out=0.7)
        log = simulate(SimulationConfig(params=params, n_edges=3000, seed=4)).log
        source, target = (np.where(col == 1, 1, 2**32 + 5 * col) for col in (log.source, log.target))
        path = tmp_path / "sparse.edges"
        export(EdgeLog.from_columns(source, target, log.time), path)
        if not flags:
            source, target = np.concatenate(([1], source)), np.concatenate(([1], target))
        ids, dense = np.unique(np.concatenate((source, target)), return_inverse=True)
        edges = len(source)
        counts = degree_counts_from_arrays(
            np.bincount(dense[edges:], minlength=len(ids)),
            np.bincount(dense[:edges], minlength=len(ids)),
            len(ids),
            edges,
        )
        for direction in ("in", "out"):
            out, expected = tmp_path / f"{direction}.csv", tmp_path / f"expected_{direction}.csv"
            assert run(["ccdf", "--input", str(path), "--direction", direction, *flags, "--out", str(out)]) == 0
            export(ccdf(counts, direction), expected)
            assert out.read_bytes() == expected.read_bytes()

    def test_classify_labels_and_counts(self, sparse_log, tmp_path, capsys):
        a, b, c = self.BASE + 7, self.BASE + 3, self.BASE + 11
        out = tmp_path / "labeled.edges"
        assert run(["classify", "--input", str(sparse_log), "--out", str(out)]) == 0
        assert out.read_text() == f"{a} {b} 1 5\n{c} {b} 2 1\n{b} {a} 3 2\n"
        assert "scenario counts: {1: 1, 2: 1, 5: 1}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["fit", "ccdf", "classify"])
    def test_beyond_int64_exits_validation(self, tmp_path, command, capsys):
        path = tmp_path / "big.edges"
        path.write_text(f"1 2 1\n{2**63} 2 2\n")
        assert run([command, "--input", str(path), "--out", str(tmp_path / "out")]) == 2
        assert ":2: integer outside the int64 range" in capsys.readouterr().err
