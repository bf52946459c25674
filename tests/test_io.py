import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridnet import (
    EdgeLog,
    EdgeRecord,
    HybridParams,
    SimulationConfig,
    ccdf,
    degree_counts,
    export,
    limit_pmf,
    log_likelihood,
    parse_edge_file,
    replay,
    simulate,
    window,
)
from hybridnet.io import TRACE_HEADER
from conftest import log_from_pairs


class TestParse:
    def test_comment_and_single_record(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("% header\n1 2 100\n")
        log = parse_edge_file(path)
        assert log.records == [EdgeRecord(1, 2, 100, None)]

    def test_stable_sort_by_timestamp(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("1 2 300\n3 4 100\n5 6 300\n")
        log = parse_edge_file(path)
        assert [r.time for r in log] == [100, 300, 300]
        assert [r.source for r in log] == [3, 1, 5]  # ties keep input order

    def test_tabs_and_spaces_equivalent(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1 2 100\n2 3 200\n")
        b.write_text("1\t2\t100\n2\t3\t200\n")
        assert parse_edge_file(a).records == parse_edge_file(b).records

    def test_missing_timestamp_uses_record_order(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("4 5\n6 7\n")
        log = parse_edge_file(path)
        assert [r.time for r in log] == [0, 1]

    def test_scenario_column_parsed(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("2 1 1 1\n1 1 2 2\n")
        assert [r.scenario for r in parse_edge_file(path)] == [1, 2]

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("1 2 3\nfoo bar 1\n")
        with pytest.raises(ValueError, match=":2:"):
            parse_edge_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("% nothing\n")
        with pytest.raises(ValueError, match="no edge records"):
            parse_edge_file(path)

    def test_nonpositive_id_rejected(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("0 2 1\n")
        with pytest.raises(ValueError, match="positive"):
            parse_edge_file(path)


class TestWindow:
    def test_full_range_is_identity_on_dense_logs(self):
        log = log_from_pairs([(1, 2), (2, 3), (1, 3)])
        windowed, mapping = window(log, 1, 3)
        assert windowed.records == log.records
        assert mapping == {1: 1, 2: 2, 3: 3}

    def test_disjoint_window_rejected(self):
        log = log_from_pairs([(1, 2)])
        with pytest.raises(ValueError, match="selects no records"):
            window(log, 100, 200)
        with pytest.raises(ValueError, match="empty window"):
            window(log, 5, 4)

    def test_middle_record_selected_and_relabeled(self):
        log = EdgeLog([EdgeRecord(10, 20, 1), EdgeRecord(30, 40, 2), EdgeRecord(50, 60, 3)])
        windowed, mapping = window(log, 2, 2)
        assert windowed.records == [EdgeRecord(1, 2, 2, None)]
        assert mapping == {30: 1, 40: 2}

    def test_stale_scenario_labels_dropped(self):
        th = HybridParams.fill_gamma(0.3, 0.4, p=0.6, delta_in=1.0, delta_out=1.0)
        _, log, _ = simulate(SimulationConfig(params=th, n_edges=100, seed=19))
        windowed, _ = window(log, 50, 100)
        assert all(rec.scenario is None for rec in windowed)
        replay(windowed, seeded=False)  # must not trip label validation

    def test_relabeling_preserves_likelihood(self):
        th = HybridParams.fill_gamma(0.2, 0.3, p=0.6, delta_in=1.0, delta_out=0.8)
        _, log, _ = simulate(SimulationConfig(params=th, n_edges=300, seed=77))
        bare = EdgeLog([r._replace(scenario=None) for r in log])
        rng = np.random.default_rng(3)
        ids = sorted({n for r in bare for n in (r.source, r.target)})
        perm = dict(zip(ids, (int(x) for x in rng.permutation(ids))))
        shuffled = EdgeLog([EdgeRecord(perm[r.source], perm[r.target], r.time) for r in bare])
        w1, _ = window(bare, 1, 300)
        w2, _ = window(shuffled, 1, 300)
        ll1 = log_likelihood(replay(w1, seeded=False), th)
        ll2 = log_likelihood(replay(w2, seeded=False), th)
        assert ll1 == ll2


class TestExport:
    def test_edge_log_round_trip(self, tmp_path):
        th = HybridParams.fill_gamma(0.3, 0.3, p=0.5, delta_in=1.0, delta_out=1.0, xi=0.05, eta=0.05)
        _, log, _ = simulate(SimulationConfig(params=th, n_edges=120, seed=5))
        path = tmp_path / "log.edges"
        export(log, path)
        assert parse_edge_file(path).records == log.records

    def test_edge_log_round_trip_without_labels(self, tmp_path):
        log = log_from_pairs([(2, 1), (1, 1)])
        path = tmp_path / "log.edges"
        export(log, path)
        assert parse_edge_file(path).records == log.records

    def test_ccdf_round_trip(self, tmp_path, table1_params):
        state, _, _ = simulate(SimulationConfig(params=table1_params, n_edges=2000, seed=6))
        curve = ccdf(degree_counts(state), "in")
        path = tmp_path / "ccdf.csv"
        export(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "m,value"
        parsed = [(int(m), float(v)) for m, v in (line.split(",") for line in lines[1:])]
        assert parsed == curve

    def test_limit_pmf_schema(self, tmp_path, table1_params):
        pmf = limit_pmf(table1_params, m_max=5)
        path = tmp_path / "pmf.csv"
        export(pmf, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "m,psi_in,psi_out"
        assert len(lines) == pmf.truncation_m + 2
        first = lines[1].split(",")
        assert float(first[1]) == pmf.psi_in[0]

    def test_degree_counts_export(self, tmp_path):
        from hybridnet.degrees import DegreeCounts

        obj = DegreeCounts(in_counts={0: 2, 3: 1}, out_counts={1: 3}, n_nodes=3, n_edges=3)
        path = tmp_path / "counts.csv"
        export(obj, path)
        assert path.read_text() == "m,n_in,n_out\n0,2,0\n1,0,3\n3,1,0\n"

    def test_empty_curve_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export([], path)
        assert path.read_text() == "m,value\n"

    def test_json_format(self, tmp_path):
        path = tmp_path / "curve.json"
        export([(0, 0.5), (1, 0.25)], path, format="json")
        payload = json.loads(path.read_text())
        assert payload == [{"m": 0, "value": 0.5}, {"m": 1, "value": 0.25}]

    def test_deterministic_bytes(self, tmp_path, table1_params):
        pmf = limit_pmf(table1_params, m_max=5)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        export(pmf, a)
        export(pmf, b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_format_and_type(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            export([], tmp_path / "x.csv", format="xml")
        with pytest.raises(TypeError, match="no exporter"):
            export(object(), tmp_path / "x.csv")


class TestTraceExport:
    def test_header_and_rows(self, tmp_path, table1_params):
        from hybridnet import MhConfig, fit_mh

        _, log, _ = simulate(SimulationConfig(params=table1_params, n_edges=500, seed=3))
        result = fit_mh(replay(log), MhConfig(burn_in=50, iterations=300, thinning=100, seed=1))
        path = tmp_path / "trace.csv"
        export(result, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(TRACE_HEADER)
        assert len(lines) == 1 + 3

    def test_json_trace(self, tmp_path, table1_params):
        from hybridnet import MhConfig, fit_mh

        _, log, _ = simulate(SimulationConfig(params=table1_params, n_edges=400, seed=9))
        result = fit_mh(replay(log), MhConfig(burn_in=20, iterations=200, thinning=100, seed=2))
        path = tmp_path / "trace.json"
        export(result, path, format="json")
        payload = json.loads(path.read_text())
        assert len(payload) == 2
        assert payload[0]["iteration"] == 120
        assert set(payload[0]) == set(TRACE_HEADER)

    def test_traceless_result_rejected(self, tmp_path, table1_params):
        from hybridnet import NelderMeadConfig, fit_nelder_mead

        _, log, _ = simulate(SimulationConfig(params=table1_params, n_edges=300, seed=3))
        start = HybridParams.fill_gamma(1 / 3, 1 / 3, p=0.5, delta_in=1.0, delta_out=1.0)
        result = fit_nelder_mead(replay(log), NelderMeadConfig(initial_point=start))
        with pytest.raises(ValueError, match="no trace"):
            export(result, tmp_path / "trace.csv")


@settings(max_examples=30, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(1, 30), st.integers(1, 30)), min_size=1, max_size=40
    ),
    times=st.lists(st.integers(0, 10**9), min_size=40, max_size=40),
)
def test_parse_export_identity_property(tmp_path_factory, pairs, times):
    records = [
        EdgeRecord(s, t, time, None)
        for (s, t), time in zip(pairs, sorted(times[: len(pairs)]))
    ]
    log = EdgeLog(records)
    path = tmp_path_factory.mktemp("roundtrip") / "log.edges"
    export(log, path)
    assert parse_edge_file(path).records == log.records


class TestInt64Range:
    def test_value_beyond_int64_reports_lineno(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text(f"1 2 3\n% comment\n1 2 {2**63}\n")
        with pytest.raises(ValueError, match=r":3: integer outside the int64 range"):
            parse_edge_file(path)
        path.write_text(f"1 {2**63} 3\n")
        with pytest.raises(ValueError, match=":1:"):
            parse_edge_file(path)

    def test_int64_extremes_parse(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text(f"{2**63 - 1} 2 {-(2**63)}\n")
        assert parse_edge_file(path).records == [EdgeRecord(2**63 - 1, 2, -(2**63), None)]

    def test_large_ids_round_trip(self, tmp_path):
        base = 10**12
        log = EdgeLog([EdgeRecord(base + 7, base + 3, 1, 5), EdgeRecord(base + 11, base + 3, 2, 1)])
        path = tmp_path / "log.edges"
        export(log, path)
        assert path.read_text() == f"{base + 7} {base + 3} 1 5\n{base + 11} {base + 3} 2 1\n"
        assert parse_edge_file(path).records == log.records


def test_export_mixed_labels(tmp_path):
    path = tmp_path / "log.edges"
    export(EdgeLog([EdgeRecord(2, 1, 1, 1), EdgeRecord(1, 1, 2)]), path)
    assert path.read_text() == "2 1 1 1\n1 1 2\n"
