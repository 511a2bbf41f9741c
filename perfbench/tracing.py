"""Spans and counters recorded around calls into decompound's layers.

Nothing in the package is edited: `install` replaces the attributes through
which one module calls another (for example ``harness.sample_compound``) with
wrappers that record a span, and `install_outcomes` adds the per-operation
failure accounting that every run needs.  Spans and counts made inside pool
workers travel back to the parent with each job's result, through the
`ProcessPoolExecutor` that ``harness`` creates.

A span is (name, start, end, id, parent id, pass id, extra).  Ids are
(pid, serial) pairs so spans from several processes can be merged; the
clock is `time.perf_counter`, which is CLOCK_MONOTONIC on Linux and so
comparable across processes.
"""
from __future__ import annotations

import itertools
import math
import os
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from decompound import cli, coeffs, density, harness, simulate, steplaws

# Counts that depend only on the inputs; two traced passes (or runs) over the
# same seed must give them exactly.
EXACT_COUNTS = (
    "simulate.obs",
    "coeffs.transform_evals",
    "steplaws.laws_built",
    "harness.pools_started",
    "spaces.spectrum.indices",
    "coeffs.estimate.calls",
    "coeffs.estimate.truncated",
)


class Recorder:
    """Spans and per-pass counters of one process."""

    def __init__(self):
        self.tracing = False
        self.pass_id = -1
        self.reset()

    def reset(self):
        self.spans = []
        self.counts = defaultdict(Counter)
        self.stack = []
        self._serial = itertools.count()

    def new_id(self):
        return (os.getpid(), next(self._serial))

    def count(self, name, n=1):
        self.counts[self.pass_id][name] += n

    def call(self, name, fn, args, kwargs, after=None, memory=False):
        """Run fn inside a span when tracing; plain call otherwise."""
        if not self.tracing:
            return fn(*args, **kwargs)
        sid = self.new_id()
        parent = self.stack[-1] if self.stack else None
        extra = {}
        self.stack.append(sid)
        measure = memory and not tracemalloc.is_tracing()
        if measure:
            tracemalloc.start()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            if measure:
                extra["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self.stack.pop()
            self.spans.append((name, t0, t1, sid, parent, self.pass_id, extra))
        if after is not None:
            after(self, args, kwargs, result)
        return result

    def export(self):
        return {"spans": self.spans,
                "counts": {p: dict(c) for p, c in self.counts.items()}}

    def absorb(self, payload):
        self.spans.extend(payload["spans"])
        for p, c in payload["counts"].items():
            self.counts[p].update(c)


_ACTIVE: Recorder | None = None
_SPANS_INSTALLED = False


def active() -> Recorder:
    return _ACTIVE


# ---------------------------------------------------------------------------
# pool workers


def _remote(ctx, job):
    """Run one pool job in a worker and return its result with the worker's
    spans and counts.  A forked worker inherits the parent's wrappers; a
    spawned one installs them here."""
    fn, tracing, pass_id, parent = ctx
    if _ACTIVE is None:
        install_outcomes(Recorder())
    if tracing and not _SPANS_INSTALLED:
        install()
    rec = _ACTIVE
    rec.reset()  # drop what a forked worker copied from its parent
    rec.tracing, rec.pass_id = tracing, pass_id
    rec.stack = [parent] if parent is not None else []
    result = rec.call("harness.worker", fn, (job,), {})
    payload = rec.export()
    rec.reset()
    return result, payload


class _RecordingPool(ProcessPoolExecutor):
    """ProcessPoolExecutor whose jobs report spans and counts back."""

    def __init__(self, max_workers=None, *args, **kwargs):
        super().__init__(max_workers, *args, **kwargs)
        rec = _ACTIVE
        self._workers = self._max_workers
        self._parent = rec.stack[-1] if rec.stack else None
        self._sid = rec.new_id()
        self._opened = time.perf_counter()
        if rec.tracing:
            rec.count("harness.pools_started")

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        rec = _ACTIVE
        ctx = (fn, rec.tracing, rec.pass_id, self._sid)
        results = super().map(_remote, itertools.repeat(ctx), *iterables,
                              timeout=timeout, chunksize=chunksize)

        def unwrap():
            for result, payload in results:
                rec.absorb(payload)
                yield result
        return unwrap()

    def shutdown(self, wait=True, *, cancel_futures=False):
        super().shutdown(wait, cancel_futures=cancel_futures)
        rec = _ACTIVE
        if rec.tracing and self._opened is not None:
            rec.spans.append(("harness.pool", self._opened, time.perf_counter(),
                              self._sid, self._parent, rec.pass_id,
                              {"workers": self._workers}))
        self._opened = None


# ---------------------------------------------------------------------------
# operation outcomes (every run)


def estimate_failed(value) -> bool:
    return not (math.isfinite(value.real) and math.isfinite(value.imag))


def reconstruct_failed(est) -> bool:
    """A reconstruction fails when a coefficient is non-finite or every
    non-trivial index was truncated."""
    nontrivial = [ix for ix in est.coeffs.indices() if not ix.is_trivial]
    if any(estimate_failed(est.coeffs[ix]) for ix in est.coeffs.indices()):
        return True
    return bool(nontrivial) and all(est.coeffs.is_truncated(ix) for ix in nontrivial)


def _outcome_estimate(fn):
    def wrapper(nu, index, cfg):
        value, flag = fn(nu, index, cfg)
        if not getattr(index, "is_trivial", False):
            _ACTIVE.count("ops")
            if flag or estimate_failed(value):
                _ACTIVE.count("ops_failed")
        return value, flag
    return wrapper


def _outcome_reconstruct(fn):
    def wrapper(*args, **kwargs):
        est = fn(*args, **kwargs)
        _ACTIVE.count("ops")
        if reconstruct_failed(est):
            _ACTIVE.count("ops_failed")
        return est
    return wrapper


def install_outcomes(rec: Recorder, ops_at=None):
    """Count operations and their failures, and route pool jobs through the
    recorder.  ops_at picks where one operation is counted: "estimate" (one
    coefficient estimate of a coefficient study) or "reconstruct" (one
    density reconstruction inside a study)."""
    global _ACTIVE
    _ACTIVE = rec
    harness.ProcessPoolExecutor = _RecordingPool
    if ops_at == "estimate":
        coeffs.estimate_with_flag = _outcome_estimate(coeffs.estimate_with_flag)
    elif ops_at == "reconstruct":
        harness.reconstruct = _outcome_reconstruct(harness.reconstruct)


# ---------------------------------------------------------------------------
# spans (traced runs)


def _wrap(owner, attr, name, after=None, memory=False):
    fn = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        return _ACTIVE.call(name, fn, args, kwargs, after=after, memory=memory)
    setattr(owner, attr, wrapper)


def _wrap_method(cls, attr, name):
    fn = getattr(cls, attr)

    def method(self, *args, **kwargs):
        return _ACTIVE.call(name, fn, (self,) + args, kwargs)
    setattr(cls, attr, method)


def _count_law(cls):
    def build(*args, **kwargs):
        if _ACTIVE.tracing:
            _ACTIVE.count("steplaws.laws_built")
        return cls(*args, **kwargs)
    return build


def _after_sample(rec, args, kwargs, obs):
    rec.count("simulate.obs", obs.m)


def _after_transform(rec, args, kwargs, nu):
    rec.count("coeffs.transform_evals", nu.m * len(nu.labels()))


def _after_spectrum(rec, args, kwargs, result):
    rec.count("spaces.spectrum.indices", len(result))


def _after_evaluate(rec, args, kwargs, result):
    est = args[0]
    rec.count("density.evaluate_evals", np.size(result) * len(est.coeffs))


def _count_estimates(fn):
    def wrapper(nu, index, cfg):
        value, flag = fn(nu, index, cfg)
        if _ACTIVE.tracing:
            _ACTIVE.count("coeffs.estimate.calls")
            if flag:
                _ACTIVE.count("coeffs.estimate.truncated")
        return value, flag
    return wrapper


def install():
    """Wrap each module boundary the per-layer metrics need."""
    global _SPANS_INSTALLED
    _SPANS_INSTALLED = True
    # simulate <- harness, coeffs and the benchmark itself
    for owner in (harness, coeffs, simulate):
        _wrap(owner, "sample_compound", "simulate.sample_compound", after=_after_sample)
    # steplaws <- simulate
    _wrap(simulate, "uniform_tangents", "steplaws.uniform_tangents")
    for cls in (steplaws.HeatZonal, steplaws.UniformCap):
        _wrap_method(cls, "sample_distances", "steplaws.sample_distances")
    for cls in (steplaws.HeatZonal, steplaws.WrappedNormal):
        _wrap_method(cls, "sample_displacements", "steplaws.sample_displacements")
    simulate.HeatZonal = _count_law(simulate.HeatZonal)
    simulate.WrappedNormal = _count_law(simulate.WrappedNormal)
    # coeffs <- density and coeffs' own study loop
    for owner in (density, coeffs):
        _wrap(owner, "empirical_transform", "coeffs.empirical_transform",
              after=_after_transform, memory=True)
        owner.estimate_with_flag = _count_estimates(owner.estimate_with_flag)
    # density <- harness and the benchmark
    for owner in (harness, density):
        _wrap(owner, "reconstruct", "density.reconstruct")
        _wrap(owner, "truth_table", "density.truth_table")
        _wrap(owner, "l2_error", "density.l2_error")
    _wrap(density, "evaluate", "density.evaluate", after=_after_evaluate, memory=True)
    # spaces <- density
    _wrap(density, "spectrum", "spaces.spectrum", after=_after_spectrum)
    # harness <- cli and the benchmark
    _wrap(harness, "run_coefficient_study", "harness.study")
    _wrap(cli, "run_convergence_study", "harness.study")
    _wrap(cli, "write_study_outputs", "harness.write_study_outputs")
    _wrap(harness, "fit_rate", "harness.fit_rate")
    # cli <- the benchmark
    _wrap(cli, "main", "cli.main")


# ---------------------------------------------------------------------------
# per-layer metrics


def _pass_layers(spans, counts):
    """Per-layer figures of one pass from its spans and counts."""
    covered = Counter()
    for name, t0, t1, sid, parent, _, _ in spans:
        if parent is not None and parent[0] == sid[0]:
            covered[parent] += t1 - t0
    total = Counter()
    self_time = Counter()
    peak = Counter()
    busy = 0.0
    pool_capacity = 0.0
    for name, t0, t1, sid, parent, _, extra in spans:
        total[name] += t1 - t0
        self_time[name] += t1 - t0 - covered[sid]
        if "peak_bytes" in extra:
            peak[name] = max(peak[name], extra["peak_bytes"] / 1e6)
        if name == "harness.worker":
            busy += t1 - t0
        elif name == "harness.pool":
            pool_capacity += (t1 - t0) * extra["workers"]

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    c = counts
    return {
        "simulate.sample_compound.self_s": self_time["simulate.sample_compound"],
        "simulate.obs": c.get("simulate.obs", 0),
        "simulate.obs_per_s": ratio(c.get("simulate.obs", 0),
                                    total["simulate.sample_compound"]),
        "steplaws.sample_distances.s": total["steplaws.sample_distances"],
        "steplaws.sample_displacements.s": total["steplaws.sample_displacements"],
        "steplaws.uniform_tangents.s": total["steplaws.uniform_tangents"],
        "steplaws.laws_built": c.get("steplaws.laws_built", 0),
        "coeffs.empirical_transform.s": total["coeffs.empirical_transform"],
        "coeffs.transform_evals": c.get("coeffs.transform_evals", 0),
        "coeffs.transform_evals_per_s": ratio(c.get("coeffs.transform_evals", 0),
                                              total["coeffs.empirical_transform"]),
        "coeffs.empirical_transform.peak_mb": peak["coeffs.empirical_transform"],
        "coeffs.estimate.calls": c.get("coeffs.estimate.calls", 0),
        "coeffs.truncated_frac": ratio(c.get("coeffs.estimate.truncated", 0),
                                       c.get("coeffs.estimate.calls", 0)),
        "density.reconstruct.self_s": self_time["density.reconstruct"],
        "density.truth_table.self_s": self_time["density.truth_table"],
        "density.l2_error.s": total["density.l2_error"],
        "density.evaluate.s": total["density.evaluate"],
        "density.evaluate.peak_mb": peak["density.evaluate"],
        "density.evaluate_evals": c.get("density.evaluate_evals", 0),
        "spaces.spectrum.s": total["spaces.spectrum"],
        "spaces.spectrum.indices": c.get("spaces.spectrum.indices", 0),
        "harness.study.self_s": self_time["harness.study"],
        "harness.pools_started": c.get("harness.pools_started", 0),
        "harness.worker_busy_frac": ratio(busy, pool_capacity),
        "harness.fit_rate.s": total["harness.fit_rate"],
        "harness.write_study_outputs.s": total["harness.write_study_outputs"],
        "cli.main.self_s": self_time["cli.main"],
    }


def layer_metrics(rec: Recorder, pass_ids):
    """Median over the given passes of each per-layer figure, plus the exact
    counts of every pass (for the repeat check)."""
    by_pass = defaultdict(list)
    for span in rec.spans:
        by_pass[span[5]].append(span)
    rows = [_pass_layers(by_pass[p], rec.counts.get(p, {})) for p in pass_ids]
    medians = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    exact = [{k: rec.counts.get(p, {}).get(k, 0) for k in EXACT_COUNTS}
             for p in pass_ids]
    return medians, exact
