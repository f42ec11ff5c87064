"""Per-layer metrics: which functions are traced and how spans become metrics.

Layers are flowdistill's modules. Every public function and public method
of each layer module is traced (:func:`tracer.public_targets`); the
functions that the metric table names get a probe where a metric needs
their arguments (rows, pairs, bytes) or a per-argument span name.

A metric name is ``<span name>.<kind>``:

* ``calls``: number of spans with that name;
* ``self_ms``: summed self time of those spans;
* ``ms``: summed duration of the outermost spans with that name, less the
  tracer's probe spans (``trace.probe``) inside them;
* ``nodes``, ``rows``, ``pairs``, ``bytes``, ``clips``: counters that the
  probes add, which repeat exactly at a fixed seed.

Three families are derived differently: ``layer.<module>.self_ms`` sums
the self time of every span of a module, ``distill.iter_ms.p50``/``p90``
are quantiles of the gaps between successive ``Adam.step`` starts inside
one ``distill.run_stage`` span, less probe time, and ``trace.overhead_*`` compare the
traced and untraced passes of the same run.
"""
from __future__ import annotations

import os
import statistics

import numpy as np

from .tracer import PROBE_SPAN, outermost, public_targets, self_times

__all__ = ["LAYERS", "PER_LAYER", "DETERMINISTIC", "targets", "layer_metrics",
           "median_metrics"]

LAYERS = ("autodiff", "nets", "solvers", "schedule", "datagen", "distill",
          "ranks", "evalmetrics", "checkpoint", "runner")

STAGES = ("128to32", "32to8", "8to4", "4to2", "2to1")

_C, _MS, _B = ("count", "lower"), ("ms", "lower"), ("bytes", "lower")

# (metric name, (unit, better)); the order is the order of BENCHMARK.json.
PER_LAYER = (
    [("autodiff.backward.calls", _C), ("autodiff.backward.self_ms", _MS),
     ("autodiff.backward.nodes", _C),
     ("autodiff.temporal_mix.calls", _C), ("autodiff.temporal_mix.self_ms", _MS),
     ("nets.student_eps.calls", _C), ("nets.student_eps.rows", _C),
     ("nets.student_eps.self_ms", _MS),
     ("nets.Adam.step.calls", _C), ("nets.Adam.step.self_ms", _MS),
     ("nets.pretrain_base.ms", _MS), ("nets.pretrain_motion.ms", _MS),
     ("nets.disc_pair_prob.calls", _C), ("nets.disc_pair_prob.self_ms", _MS),
     ("nets.disc_single_prob.calls", _C), ("nets.disc_single_prob.self_ms", _MS),
     ("solvers.euler_solve.calls", _C), ("solvers.euler_solve.self_ms", _MS),
     ("solvers.multistep_solve.calls", _C),
     ("solvers.multistep_solve.self_ms", _MS),
     ("solvers.sample_batch.rows", _C), ("solvers.sample_batch.ms", _MS),
     ("evalmetrics.reference_set.ms", _MS), ("evalmetrics.arm_set.ms", _MS),
     ("evalmetrics.energy_distance.calls", _C),
     ("evalmetrics.energy_distance.pairs", _C),
     ("evalmetrics.energy_distance.ms", _MS),
     ("distill.mse_distill_step.ms", _MS),
     ("distill.adversarial_step.disc.ms", _MS),
     ("distill.adversarial_step.student.ms", _MS),
     ("distill.RankWorker.draw_batch.ms", _MS)]
    + [(f"distill.run_stage.{stage}.ms", _MS) for stage in STAGES]
    + [("distill.iter_ms.p50", _MS), ("distill.iter_ms.p90", _MS),
       ("ranks.all_reduce_shared.calls", _C), ("ranks.all_reduce_shared.bytes", _B),
       ("ranks.all_reduce_shared.ms", _MS), ("ranks.accumulate_and_update.ms", _MS),
       ("datagen.sample_ground_truth.clips", _C),
       ("datagen.sample_ground_truth.ms", _MS),
       ("datagen.generate_distill_dataset.clips", _C),
       ("datagen.generate_distill_dataset.ms", _MS),
       ("checkpoint.checkpoint_save.bytes", _B), ("checkpoint.checkpoint_save.ms", _MS),
       ("datagen.save_dataset.bytes", _B), ("datagen.save_dataset.ms", _MS),
       ("checkpoint.checkpoint_load.ms", _MS),
       ("datagen.load_dataset.bytes", _B), ("datagen.load_dataset.ms", _MS)]
    + [(f"runner.Workspace.{m}.ms", _MS) for m in
       ("pretrain_bases", "build_datasets", "distill_arm", "evaluate_main",
        "evaluate_ablation")]
    + [(f"layer.{layer}.self_ms", _MS) for layer in LAYERS]
    + [("trace.overhead_s", ("s", "lower")), ("trace.overhead_pct", ("%", "lower"))]
)

# Counts that repeat exactly at a fixed seed; only these may back a count
# claim. The byte counters are the bytes written and read.
DETERMINISTIC = (
    "autodiff.backward.calls", "autodiff.backward.nodes",
    "nets.student_eps.rows", "ranks.all_reduce_shared.calls",
    "ranks.all_reduce_shared.bytes", "evalmetrics.energy_distance.pairs",
    "checkpoint.checkpoint_save.bytes", "datagen.save_dataset.bytes",
    "datagen.load_dataset.bytes",
)

_COUNTER_KINDS = ("nodes", "rows", "pairs", "bytes", "clips")


# -- probes: (bound arguments, result) -> (span name suffix, counts) --------


def _tape_nodes(a, _):
    seen = set()
    stack = [a["loss"]]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return None, {"nodes": len(seen)}


def _rows(arg):
    def probe(a, _):
        return None, {"rows": np.shape(getattr(a[arg], "value", a[arg]))[0]}
    return probe


def _pairs(a, _):
    n, m = len(a["a"]), len(a["b"])
    cross = n * m - (n if a["matched_pairs"] else 0)
    return None, {"pairs": cross + n * (n - 1) + m * (m - 1)}


def _file_bytes(a, _):
    return None, {"bytes": os.path.getsize(a["path"])}


def _reduced_bytes(a, _):
    return None, {"bytes": sum(np.asarray(g).nbytes for c in a["contributions"]
                               for g in c.values())}


def _clips(a, _):
    return None, {"clips": a["n"]}


PROBES = {
    "autodiff.backward": _tape_nodes,
    "nets.student_eps": _rows("x"),
    "solvers.sample_batch": _rows("tokens"),
    "evalmetrics.energy_distance": _pairs,
    "distill.adversarial_step": lambda a, _: (a["side"], {}),
    "distill.run_stage": lambda a, _: (a["stage"].name, {}),
    "ranks.all_reduce_shared": _reduced_bytes,
    "datagen.sample_ground_truth": _clips,
    "datagen.generate_distill_dataset": _clips,
    "checkpoint.checkpoint_save": _file_bytes,
    "datagen.save_dataset": _file_bytes,
    "datagen.load_dataset": _file_bytes,
}

# Probes that append an argument to the span name.
_SUFFIXED = ("distill.adversarial_step", "distill.run_stage")


def _named() -> list:
    """Functions the metric table names, as span names without a suffix."""
    out = set()
    for metric, _ in PER_LAYER:
        if metric.startswith(("layer.", "trace.", "distill.iter_ms.")):
            continue
        head = metric.rpartition(".")[0]
        out.add(next((s for s in _SUFFIXED if head.startswith(s + ".")), head))
    return sorted(out)


def targets() -> tuple:
    """(targets to wrap, named functions that no longer exist)."""
    found = {t.name: t for t in public_targets(LAYERS)}
    for name, probe in PROBES.items():
        if name in found:
            found[name].probe = probe
    missing = [name for name in _named() if name not in found]
    return list(found.values()), missing


def _iter_gaps_ms(spans) -> list:
    """Gaps between successive Adam.step starts within one run_stage span,
    less the probe spans between them."""
    last: dict = {}
    gaps = []
    probed = 0.0  # probe seconds so far; spans are in start order
    for span in spans:
        if span[0] == PROBE_SPAN:
            probed += span[2] - span[1]
            continue
        if span[0] != "nets.Adam.step":
            continue
        parent = span[3]
        while parent >= 0 and not spans[parent][0].startswith("distill.run_stage."):
            parent = spans[parent][3]
        if parent < 0:
            continue
        if parent in last:
            start, probed_then = last[parent]
            gaps.append((span[1] - start - (probed - probed_then)) * 1e3)
        last[parent] = (span[1], probed)
    return gaps


def _probe_below(spans) -> list:
    """Seconds of probe spans in each span's subtree (a probe: its own)."""
    below = [s[2] - s[1] if s[0] == PROBE_SPAN else 0.0 for s in spans]
    # A child's index is always above its parent's.
    for i in range(len(spans) - 1, -1, -1):
        if spans[i][3] >= 0:
            below[spans[i][3]] += below[i]
    return below


def layer_metrics(spans, counts) -> dict:
    """Every per-layer metric of one traced pass except ``trace.*``.

    Spans are in seconds. A metric whose function was not called, or no
    longer exists, reads 0. Probe spans count in no layer.
    """
    own = self_times(spans)
    probe_s = _probe_below(spans)
    by_name: dict = {}
    self_ms: dict = {}
    module_ms = {layer: 0.0 for layer in LAYERS}
    for i, (span, own_s) in enumerate(zip(spans, own)):
        name = span[0]
        by_name.setdefault(name, []).append(i)
        self_ms[name] = self_ms.get(name, 0.0) + own_s * 1e3
        module = name.partition(".")[0]
        if module in module_ms:
            module_ms[module] += own_s * 1e3
    gaps = _iter_gaps_ms(spans)
    out = {}
    for metric, _ in PER_LAYER:
        head, _, kind = metric.rpartition(".")
        if metric.startswith("trace."):
            continue
        if metric.startswith("layer."):
            value = module_ms[head.partition(".")[2]]
        elif metric.startswith("distill.iter_ms."):
            q = {"p50": 0.5, "p90": 0.9}[kind]
            value = float(np.quantile(gaps, q)) if gaps else 0.0
        elif kind == "calls":
            value = len(by_name.get(head, ()))
        elif kind == "self_ms":
            value = self_ms.get(head, 0.0)
        elif kind == "ms":
            value = sum(spans[i][2] - spans[i][1] - probe_s[i]
                        for i in outermost(spans, by_name.get(head, ()))) * 1e3
        elif kind in _COUNTER_KINDS:
            value = counts.get(metric, 0)
        else:
            raise ValueError(f"unknown metric kind in {metric!r}")
        out[metric] = value
    return out


def median_metrics(per_pass: list) -> dict:
    """Low median of each metric over traced passes, so counts stay exact."""
    return {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}
