"""Per-layer tracing from outside the program.

The tracer swaps public functions for timing wrappers at the places where
the program looks them up (for example ``fxam.training.gram_assemble``,
which is the name the trainer calls, not ``fxam.categorical``'s own) and
restores them on removal.  Counts come from the objects the calls return.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import fxam.categorical
import fxam.smoothers
import fxam.temporal
import fxam.training


def _labels(tracer, args, result):
    tracer.counts["labels"] += result.cardinality


def _time_points(tracer, args, result):
    tracer.counts["time_points"] += result.n_points


def _kernel_points(tracer, args, result):
    tracer.counts["kernel_points"] += args[0].n


def _nga_iterations(tracer, args, result):
    tracer.counts["nga_iterations"] += result.iterations


def _sweeps(tracer, args, result):
    tracer.counts["decompose_sweeps"] += result.iterations


def _passes(tracer, args, result):
    if result.stage1_passes:
        tracer.counts["stage1_passes"] += result.stage1_passes[-1]


# (owner, attribute, span key, observer of the returned object)
PATCHES = (
    (fxam.training, "build_homogeneous_encoding", "encoding", _labels),
    (fxam.training, "compress_time_points", "compress_time", _time_points),
    (fxam.training, "partition_phases", "compress_time", None),
    (fxam.smoothers.KernelSmootherPlan, "__init__", "kernel_plan_build",
     None),
    (fxam.smoothers.KernelSmootherPlan, "smooth", "kernel_smooth",
     _kernel_points),
    (fxam.training, "penalized_factor", "penalized_factor", None),
    (fxam.temporal, "penalized_factor", "penalized_factor", None),
    (fxam.training, "penalized_apply", "penalized_apply", None),
    (fxam.temporal, "penalized_apply", "penalized_apply", None),
    (fxam.training, "gram_assemble", "gram_assemble", None),
    (fxam.training, "power_iteration_max_eig", "power_iteration", None),
    (fxam.categorical, "power_iteration_max_eig", "power_iteration", None),
    (fxam.training, "nga_ridge_solve", "nga", _nga_iterations),
    (fxam.training, "decompose", "decompose", _sweeps),
    (fxam.training, "stage1_backfit", "stage1", _passes),
    (fxam.training, "stage2_categorical", "stage2", None),
    (fxam.training, "stage3_temporal", "stage3", None),
    (fxam.training, "objective_value", "objective", None),
)


class Tracer:
    """Call counts and inclusive seconds per span key."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._saved = []

    def reset(self):
        self.calls.clear()
        self.seconds.clear()
        self.counts.clear()

    def install(self):
        for owner, attr, key, observe in PATCHES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, key, observe))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, key, observe):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            self.seconds[key] += time.perf_counter() - start
            self.calls[key] += 1
            if observe is not None:
                observe(self, args, result)
            return result
        return traced

    def layer_metrics(self, model):
        """Per-layer figures of one fit; ``model`` supplies the knots and
        the optional sampling diagnostics."""
        calls, seconds, counts = self.calls, self.seconds, self.counts
        smooth_s = seconds["kernel_smooth"]
        out = {
            "data.encoding_s": seconds["encoding"],
            "data.labels": counts["labels"],
            "data.compress_time_s": seconds["compress_time"],
            "data.time_points": counts["time_points"],
            "smoothers.kernel_plan_builds": calls["kernel_plan_build"],
            "smoothers.kernel_plan_build_s": seconds["kernel_plan_build"],
            "smoothers.kernel_smooth_calls": calls["kernel_smooth"],
            "smoothers.kernel_smooth_s": smooth_s,
            "smoothers.kernel_points_per_s": (
                counts["kernel_points"] / smooth_s if smooth_s > 0 else 0.0
            ),
            "smoothers.penalized_factor_calls": calls["penalized_factor"],
            "smoothers.penalized_factor_s": seconds["penalized_factor"],
            "smoothers.penalized_apply_calls": calls["penalized_apply"],
            "smoothers.penalized_apply_s": seconds["penalized_apply"],
            "categorical.gram_assemble_s": seconds["gram_assemble"],
            "categorical.power_iteration_calls": calls["power_iteration"],
            "categorical.power_iteration_s": seconds["power_iteration"],
            "categorical.nga_calls": calls["nga"],
            "categorical.nga_iterations": counts["nga_iterations"],
            "categorical.nga_s": seconds["nga"],
            "temporal.decompose_calls": calls["decompose"],
            "temporal.decompose_sweeps": counts["decompose_sweeps"],
            "temporal.decompose_s": seconds["decompose"],
            "training.stage1_s": seconds["stage1"],
            "training.stage1_passes": counts["stage1_passes"],
            "training.stage2_s": seconds["stage2"],
            "training.stage3_s": seconds["stage3"],
            "training.objective_calls": calls["objective"],
            "training.objective_s": seconds["objective"],
            # every cycle runs stage 1 once, with or without features
            "training.cycles": calls["stage1"],
            "training.knots": sum(
                curve.knots.size for curve in model.shapes.values()
            ),
        }
        diagnostics = model.diagnostics
        timings = diagnostics.get("timings")
        if isinstance(timings, dict) and "initialization" in timings:
            out["training.sampling_s"] = timings["initialization"]
        sampling = diagnostics.get("sampling")
        if isinstance(sampling, dict) and "sample_size" in sampling:
            out["training.sample_size"] = sampling["sample_size"]
        return out
