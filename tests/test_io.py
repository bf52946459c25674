import json
import warnings

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
from hybridnet.io import TRACE_HEADER, _fast_columns, _line_columns
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


def _line_outcome(path, text):
    try:
        return _line_columns(path, text)
    except ValueError as exc:
        return str(exc)


def _assert_columns_equal(got, expected):
    assert len(got) == len(expected) == 4
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _assert_parse_matches_loop(path):
    """``parse_edge_file`` equals the per-line loop (columns, stably sorted by
    time, or the identical error), and so does the fast path where taken."""
    text = path.read_text()
    expected = _line_outcome(path, text)
    fast = _fast_columns(text)
    if fast is not None:
        assert not isinstance(expected, str), expected
        _assert_columns_equal(fast, expected)
    try:
        log = parse_edge_file(path)
    except ValueError as exc:
        assert str(exc) == expected
        return fast is not None
    assert not isinstance(expected, str), expected
    order = np.argsort(expected[2], kind="stable")
    _assert_columns_equal([log.source, log.target, log.time, log.scenario], [c[order] for c in expected])
    return fast is not None


_PLAIN_FIELDS = st.one_of(st.integers(1, 9), st.integers(1, 10**17), st.integers(-(10**17), 10**17))
_ODD_FIELDS = st.one_of(
    st.integers(-2, 7).map(str),
    st.sampled_from(
        [str(2**63 - 1), str(-(2**63)), str(2**63), str(-(2**63) - 1), str(10**18), "0" * 20 + "7"]
    ),
    st.sampled_from(["+3", "-0", "007", "+", "-", "1-", "+-1", "1_0", "\uff13", "1%", "%", "%x", "1.0", "x"]),
)
_SEPARATORS = st.sampled_from([" ", " ", "\t", " \t ", "\x0b", "\x1c", "\xa0"])


@st.composite
def _edge_texts(draw):
    """Edge-file texts: clean ones (one width, valid values, spaces and tabs)
    that the fast path must read, and messy ones mixing every construct the
    two readers could split or convert differently."""
    clean = draw(st.booleans())
    width = draw(st.integers(2, 4))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["record", "record", "record", "comment", "blank"]))
        if kind == "comment":
            line = draw(st.sampled_from(["", " ", "\t"])) + "%" + draw(st.text(max_size=6))
        elif kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t "]))
        elif clean:
            fields = [str(draw(st.integers(1, 10**12))) for _ in range(2)]
            fields += [str(draw(_PLAIN_FIELDS)) for _ in range(width - 2)]
            if width == 4:
                fields[3] = str(draw(st.integers(1, 5)))
            line = "".join(draw(st.sampled_from([" ", "\t", "  "])) + f for f in fields)
        else:
            fields = draw(st.lists(st.one_of(_PLAIN_FIELDS.map(str), _ODD_FIELDS), min_size=1, max_size=5))
            line = "".join(draw(_SEPARATORS) + f for f in fields) + draw(st.sampled_from(["", " % x"]))
        lines.append(line)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None)
@given(text=_edge_texts())
def test_fast_parse_matches_line_loop_property(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("parse") / "e.txt"
    path.write_bytes(text.encode("utf-8"))
    _assert_parse_matches_loop(path)


class TestFastParse:
    @pytest.mark.parametrize(
        "text",
        [
            "1 2 3\n4 5 6\n",
            "% header \u00e9\n\t% x\n1\t2\n\n 3 4 \n",
            "1 2 9 5\r\n3 1 2 1\r\n",
            "+1 02 -7\n",
        ],
    )
    def test_plain_texts_take_the_fast_path(self, tmp_path, text):
        path = tmp_path / "e.txt"
        path.write_bytes(text.encode("utf-8"))
        assert _assert_parse_matches_loop(path)

    @pytest.mark.parametrize(
        "text",
        [
            "1 2\x0b3\n",  # loadtxt: one 3-field row; the loop: two lines
            "1 2\x1c3\n",
            "1 2\xa03\n",  # loadtxt splits at no-break space
            "1 2 % x\n",  # loadtxt drops an inline comment
            "1_0 2\n",  # int accepts underscores
            "\uff13 2\n",  # int accepts full-width digits
            f"1 2 {2**63}\n",
            f"{2**63 - 1} 2 {-(2**63)}\n",
            "1 2\n3 4 5\n",  # ragged rows: the loop accepts them
            "1 2 3 4 5\n",
            "1\n",
            "0 2\n",
            "1 2 3 6\n",
            "% 1 2\x0b1 2 x\n",  # a line break inside a comment line
        ],
    )
    def test_texts_loadtxt_reads_differently_go_to_the_loop(self, tmp_path, text):
        path = tmp_path / "e.txt"
        path.write_bytes(text.encode("utf-8"))
        assert not _assert_parse_matches_loop(path)

    @pytest.mark.parametrize("text", ["", "\n", "% only a comment\n", " \t\n%a\n  %b\n"])
    def test_no_records_raise_without_warning(self, tmp_path, text):
        path = tmp_path / "e.txt"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="no edge records found"):
                parse_edge_file(path)
        assert caught == []


class TestWindow:
    def test_full_range_is_identity_on_dense_logs(self):
        log = log_from_pairs([(1, 2), (2, 3), (1, 3)])
        windowed, mapping = window(log, 1, 3)
        assert windowed.records == log.records
        assert mapping == {1: 1, 2: 2, 3: 3}

    def test_matches_first_appearance_loop(self):
        th = HybridParams.fill_gamma(0.3, 0.4, p=0.6, delta_in=1.0, delta_out=1.0, xi=0.1, eta=0.1)
        _, log, _ = simulate(SimulationConfig(params=th, n_edges=3000, seed=12))
        sparse = 10**12 + np.random.default_rng(4).permutation(10**4) * 7919
        log = EdgeLog.from_columns(sparse[log.source], sparse[log.target], log.time)
        windowed, mapping = window(log, 1000, 2000)
        expected: dict[int, int] = {}
        relabeled = []
        for source, target in zip(log.source[999:2000].tolist(), log.target[999:2000].tolist()):
            for node in (source, target):
                expected.setdefault(node, len(expected) + 1)
                relabeled.append(expected[node])
        assert list(mapping.items()) == list(expected.items())
        assert windowed.source.tolist() == relabeled[0::2]
        assert windowed.target.tolist() == relabeled[1::2]
        assert windowed.time.tolist() == list(range(1000, 2001))

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


def test_export_in_blocks(tmp_path, monkeypatch):
    import hybridnet.io

    monkeypatch.setattr(hybridnet.io, "_EXPORT_ROWS", 2)
    log = log_from_pairs([(2, 1), (1, 1), (3, 2), (3, 3), (10**12, 2)])
    path = tmp_path / "log.edges"
    export(log, path)
    assert path.read_text() == f"2 1 1\n1 1 2\n3 2 3\n3 3 4\n{10**12} 2 5\n"
    export(EdgeLog([]), path)
    assert path.read_text() == "\n"


def test_export_mixed_labels(tmp_path):
    path = tmp_path / "log.edges"
    export(EdgeLog([EdgeRecord(2, 1, 1, 1), EdgeRecord(1, 1, 2)]), path)
    assert path.read_text() == "2 1 1 1\n1 1 2\n"
