"""The tracer wraps every binding of a function and restores them all."""
import sys

import numpy as np
import pytest

import flowdistill
import flowdistill.distill
import flowdistill.evalmetrics
import flowdistill.nets
import flowdistill.runner
import flowdistill.solvers
from perfbench import layers
from perfbench.tracer import Target, Tracer, public_targets


def _bindings(fn):
    return [(name, attr) for name, module in list(sys.modules.items())
            if module is not None and name.split(".")[0] == "flowdistill"
            for attr, value in vars(module).items() if value is fn]


@pytest.mark.parametrize("module,func", [
    ("solvers", "euler_solve"), ("nets", "student_eps"),
    ("ranks", "all_reduce_shared"), ("checkpoint", "checkpoint_save"),
    ("solvers", "sample_batch"), ("checkpoint", "checkpoint_load"),
])
def test_every_binding_is_replaced_and_restored(module, func):
    original = getattr(sys.modules[f"flowdistill.{module}"], func)
    before = _bindings(original)
    # Defined in one module and imported by name into at least one other.
    assert len({name for name, _ in before}) >= 2
    with Tracer([Target(module, func)]):
        assert _bindings(original) == []
        for name, attr in before:
            wrapper = getattr(sys.modules[name], attr)
            assert wrapper is not original
            assert wrapper.__wrapped__ is original
    assert _bindings(original) == before


def test_calls_through_an_imported_binding_are_recorded():
    sched = flowdistill.build_schedule(16, 0.01, 0.2)
    x = np.zeros((2, 3, 2))
    f = lambda xv, t, tok: np.zeros_like(xv)  # noqa: E731
    with Tracer([Target("solvers", "euler_solve")]) as tracer:
        # distill.py and gradchecks.py hold their own binding of euler_solve.
        flowdistill.distill.euler_solve(f, x, np.array([15, 15]), np.array([0, 1]),
                                        2, 4, sched)
    assert [s[0] for s in tracer.spans] == ["solvers.euler_solve"]
    _, start, end, parent = tracer.spans[0]
    assert end >= start and parent == -1


def test_methods_are_wrapped_on_the_class():
    params = {"w": np.ones(3, dtype=np.float32)}
    original = flowdistill.nets.Adam.step
    with Tracer([Target("nets", "Adam.step")]) as tracer:
        flowdistill.nets.Adam(0.1).step(params, {"w": np.ones(3)})
        flowdistill.Adam(0.1).step(params, {"w": np.ones(3)})
    assert flowdistill.nets.Adam.step is original
    assert [s[0] for s in tracer.spans] == ["nets.Adam.step"] * 2


def test_nested_calls_record_their_parent():
    sched = flowdistill.build_schedule(16, 0.01, 0.2)
    f = lambda xv, t, tok: np.zeros_like(xv)  # noqa: E731
    with Tracer([Target("solvers", "euler_solve"), Target("solvers", "euler_step")]) as tracer:
        flowdistill.solvers.euler_solve(f, np.zeros((1, 3, 2)), np.array([15]),
                                        np.array([0]), 2, 4, sched)
    names = [s[0] for s in tracer.spans]
    assert names == ["solvers.euler_solve", "solvers.euler_step", "solvers.euler_step"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_absent_functions_are_skipped_not_raised():
    targets = [Target("ranks", "no_such_function"), Target("no_such_module", "f"),
               Target("nets", "NoSuchClass.step"), Target("solvers", "euler_solve")]
    original = flowdistill.solvers.euler_solve
    with Tracer(targets):
        assert flowdistill.solvers.euler_solve is not original
    assert flowdistill.solvers.euler_solve is original


def test_probe_renames_span_and_counts():
    def probe(args, result):
        return args["side"], {"rows": len(args["xs"])}

    import types
    module = types.ModuleType("flowdistill._probe_fixture")

    def work(xs, side="disc"):
        return len(xs)

    work.__module__ = module.__name__
    module.work = work
    sys.modules[module.__name__] = module
    try:
        with Tracer([Target("_probe_fixture", "work", probe)]) as tracer:
            module.work([1, 2, 3])
            module.work([1], side="student")
    finally:
        del sys.modules[module.__name__]
    # The probe's work is a span of its own, beside the call it measured.
    assert [s[0] for s in tracer.spans] == ["_probe_fixture.work.disc", "trace.probe",
                                            "_probe_fixture.work.student", "trace.probe"]
    assert [s[3] for s in tracer.spans] == [-1, -1, -1, -1]
    assert tracer.spans[1][1] >= tracer.spans[0][2]
    assert tracer.counts == {"_probe_fixture.work.disc.rows": 3,
                             "_probe_fixture.work.student.rows": 1}


def test_public_targets_cover_functions_and_methods_only():
    names = {t.name for t in public_targets(layers.LAYERS)}
    for expected in ("solvers.euler_solve", "nets.Adam.step",
                     "distill.RankWorker.draw_batch", "runner.Workspace.distill_arm",
                     "autodiff.backward", "evalmetrics.energy_distance"):
        assert expected in names
    assert not any(part.startswith("_") for n in names for part in n.split("."))
    # Re-exports are traced once, under the defining module.
    assert not any(n.startswith("config.") for n in names)


def test_layer_targets_name_only_table_functions_as_missing():
    targets, missing = layers.targets()
    names = {t.name for t in targets}
    assert set(missing) <= set(layers._named())
    assert {n for n in layers._named() if n not in missing} <= names


def test_a_removed_table_function_is_listed_as_missing(monkeypatch):
    ranks = sys.modules["flowdistill.ranks"]
    monkeypatch.delattr(ranks, "all_reduce_shared")
    monkeypatch.setattr(ranks, "__all__",
                        [n for n in ranks.__all__ if n != "all_reduce_shared"])
    targets, missing = layers.targets()
    assert missing == ["ranks.all_reduce_shared"]
    assert "ranks.all_reduce_shared" not in {t.name for t in targets}
