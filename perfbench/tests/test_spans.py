import time
import types

import pytest

from spans import Span, Tracer, instrumented, layer_metrics, self_times


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_root_duration_equals_sum_of_self_times():
    tracer = Tracer("test")
    leaf = tracer.wrap("leaf", lambda: busy(0.002))
    with tracer.span("root"):
        busy(0.001)
        with tracer.span("mid"):
            leaf()
            busy(0.001)
            leaf()
        leaf()
        busy(0.001)
    root = tracer.spans[0]
    selfs = self_times(tracer.spans)
    resolution = time.get_clock_info("perf_counter").resolution
    assert sum(selfs.values()) == pytest.approx(root.duration, abs=len(tracer.spans) * resolution + 1e-9)
    assert all(v >= 0.0 for v in selfs.values())


def test_parents_and_counts_are_recorded():
    tracer = Tracer("run-7")
    double = tracer.wrap("double", lambda x: [x, x], count=lambda r, a, k: {"records": len(r)})
    with tracer.span("root"):
        double(3)
    root, child = tracer.spans
    assert child.parent == root.id and root.parent is None
    assert child.counts == {"records": 2}
    assert {s.run for s in tracer.spans} == {"run-7"}


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, "root", None, "r", 0.0, 10.0), Span(1, "a", 0, "r", 1.0, 5.0),
             Span(2, "b", 0, "r", 4.0, 6.0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_instrumented_patches_only_while_traced():
    import hybridnet
    import hybridnet.cli

    original = hybridnet.cli.parse_edge_file
    tracer = Tracer("patch")
    with instrumented(hybridnet, tracer) as api:
        assert hybridnet.cli.parse_edge_file is not original
        assert api.HybridParams is hybridnet.HybridParams
        api.degree_counts(hybridnet.NetworkState.seed())
    assert hybridnet.cli.parse_edge_file is original
    assert [s.name for s in tracer.spans] == ["degrees.degree_counts"]
    with instrumented(hybridnet, None) as api:
        assert api.replay is hybridnet.replay


def test_layer_metrics_report_zero_for_unused_layers():
    tracer = Tracer("t")
    fake_parse = tracer.wrap("io.parse_edge_file", lambda: list(range(10)),
                             count=lambda r, a, k: {"records": len(r)})
    fake_parse()
    m = layer_metrics(tracer.spans)
    assert m["io.parse_calls"] == 1.0
    assert m["io.parse_us_per_record"] == pytest.approx(tracer.spans[0].duration / 10 * 1e6)
    assert m["estimation.mh_s"] == 0.0 and m["estimation.nm_us_per_eval"] == 0.0
    assert all(isinstance(v, float) for v in m.values())
