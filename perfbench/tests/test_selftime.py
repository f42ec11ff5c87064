"""Self time and per-layer arithmetic on synthetic spans (no timings)."""
import pytest

from perfbench import layers
from perfbench.tracer import outermost, self_times


def test_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_overlapping_children_count_once():
    spans = [["p", 0.0, 10.0, -1], ["c1", 1.0, 5.0, 0], ["c2", 3.0, 6.0, 0],
             ["c3", 8.0, 9.0, 0]]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_child_outside_its_parent_is_clipped():
    spans = [["p", 0.0, 4.0, -1], ["c", 3.0, 6.0, 0], ["d", 5.0, 7.0, 0]]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_self_times_sum_to_root_duration():
    spans = [["r", 0.0, 8.0, -1], ["x", 0.5, 2.0, 0], ["y", 0.7, 1.0, 1],
             ["z", 3.0, 7.5, 0], ["w", 4.0, 5.0, 3], ["v", 5.0, 7.0, 3]]
    assert sum(self_times(spans)) == pytest.approx(8.0)


def test_outermost_skips_recursive_calls():
    spans = [["f", 0.0, 5.0, -1], ["g", 1.0, 4.0, 0], ["f", 2.0, 3.0, 1],
             ["f", 6.0, 7.0, -1]]
    assert outermost(spans, [0, 2, 3]) == [0, 3]


def _metrics(spans, counts=None):
    return layers.layer_metrics(spans, counts or {})


def test_layer_metrics_from_spans():
    ms = 1e-3
    spans = [
        ["distill.run_stage.32to8", 0.0, 100 * ms, -1],
        ["nets.Adam.step", 10 * ms, 12 * ms, 0],
        ["nets.student_eps", 20 * ms, 30 * ms, 0],
        ["autodiff.temporal_mix", 22 * ms, 25 * ms, 2],
        ["nets.Adam.step", 40 * ms, 41 * ms, 0],
        ["nets.Adam.step", 70 * ms, 71 * ms, 0],
        ["autodiff.backward", 200 * ms, 206 * ms, -1],
    ]
    counts = {"autodiff.backward.nodes": 17, "nets.student_eps.rows": 16}
    m = _metrics(spans, counts)
    assert set(m) == {name for name, _ in layers.PER_LAYER
                      if not name.startswith("trace.")}
    assert m["nets.Adam.step.calls"] == 3
    assert m["nets.Adam.step.self_ms"] == pytest.approx(4.0)
    assert m["nets.student_eps.calls"] == 1
    assert m["nets.student_eps.self_ms"] == pytest.approx(7.0)
    assert m["nets.student_eps.rows"] == 16
    assert m["autodiff.temporal_mix.self_ms"] == pytest.approx(3.0)
    assert m["autodiff.backward.nodes"] == 17
    assert m["distill.run_stage.32to8.ms"] == pytest.approx(100.0)
    assert m["distill.run_stage.4to2.ms"] == 0.0
    # Gaps between Adam.step starts inside the stage: 30 ms and 30 ms.
    assert m["distill.iter_ms.p50"] == pytest.approx(30.0)
    assert m["layer.nets.self_ms"] == pytest.approx(11.0)
    assert m["layer.autodiff.self_ms"] == pytest.approx(9.0)
    assert m["layer.distill.self_ms"] == pytest.approx(100.0 - 4.0 - 10.0)
    assert m["layer.ranks.self_ms"] == 0.0
    assert m["autodiff.backward.calls"] == 1


def test_iteration_gaps_do_not_cross_stages():
    spans = [["distill.run_stage.8to4", 0.0, 1.0, -1], ["nets.Adam.step", 0.1, 0.2, 0],
             ["distill.run_stage.4to2", 2.0, 3.0, -1], ["nets.Adam.step", 2.5, 2.6, 2],
             ["nets.Adam.step", 2.7, 2.8, 2]]
    assert _metrics(spans)["distill.iter_ms.p50"] == pytest.approx(200.0)


def test_median_metrics_keeps_counts_exact():
    passes = [{"a.calls": 5, "a.ms": 1.0}, {"a.calls": 5, "a.ms": 3.0},
              {"a.calls": 5, "a.ms": 2.0}, {"a.calls": 5, "a.ms": 9.0}]
    assert layers.median_metrics(passes) == {"a.calls": 5, "a.ms": 2.0}


def test_probe_spans_are_charged_to_no_layer():
    ms = 1e-3
    spans = [
        ["distill.run_stage.8to4", 0.0, 50 * ms, -1],
        ["distill.mse_distill_step", 0.0, 20 * ms, 0],
        ["autodiff.backward", 5 * ms, 10 * ms, 1],
        ["trace.probe", 10 * ms, 14 * ms, 1],  # tape walk after backward
        ["nets.Adam.step", 25 * ms, 26 * ms, 0],
        ["nets.student_eps", 30 * ms, 31 * ms, 0],
        ["trace.probe", 31 * ms, 33 * ms, 0],
        ["nets.Adam.step", 40 * ms, 41 * ms, 0],
    ]
    m = _metrics(spans)
    # Self time: the probes are children of the caller's span.
    assert m["layer.distill.self_ms"] == pytest.approx(50.0 - 20.0 - 3.0 - 2.0
                                                        + 20.0 - 5.0 - 4.0)
    assert m["layer.autodiff.self_ms"] == pytest.approx(5.0)
    assert m["layer.nets.self_ms"] == pytest.approx(3.0)
    # The iteration gap 25 -> 40 ms holds a 2 ms probe.
    assert m["distill.iter_ms.p50"] == pytest.approx(13.0)
    # Inclusive times leave out every probe inside them.
    assert m["distill.mse_distill_step.ms"] == pytest.approx(16.0)
    assert m["distill.run_stage.8to4.ms"] == pytest.approx(44.0)
    assert sum(m[f"layer.{layer}.self_ms"] for layer in layers.LAYERS) \
        == pytest.approx(50.0 - 6.0)
