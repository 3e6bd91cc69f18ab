"""Workloads, timed loop, correctness gate and metrics of the plfilt
benchmark.  ``run.py`` is the entry point; see README.md for the design.

One process, one thread, closed loop: each operation starts when the previous
one returns.  The two modes, ``full`` (plain sigma-point sums) and ``pl``
(structured path), alternate operation by operation on identical inputs, so
drift hits both alike and each operation follows one of the other mode.
"""
from __future__ import annotations

import contextlib
import gzip
import hashlib
import json
import os
import platform
import statistics
import sys
import traceback
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np
import scipy

import plfilt
from plfilt import (
    BearingSensorParams,
    FilterState,
    RuleKind,
    SingerParams,
    benchmark_function,
    fusion_model,
    lrkf_step,
    make_classified,
    match_full,
    match_pl,
    pl_lrkf_step,
    simulate_tracking,
    singer_model,
)

import tracing

MODES = ("full", "pl")

# Correctness gate: relative gap between the two modes' outputs, measured as
# in acceptance criterion 1: max |full - pl| / (1 + max |full|) over every
# output block.  Moment matching agrees to roundoff (about 1e-14).  The two
# filters do not: lrkf_step factors the covariance in original order and
# pl_lrkf_step in position-first order, so the spherical-rule points differ
# by the small cross-agent covariances, and so do the results.  The gap is
# small unless a sigma point of some agent may reach the azimuth's branch
# cut (the negative x half-plane, where atan2 wraps at +-pi, or the z axis):
# a "wrap step", where a predicted agent position lies within WRAP_REACH
# times the sigma points' reach, sqrt(X * (var x + var y)), of the cut.
# Measured largest gaps away from the wrap: 2.8e-8 over 123,367 track-3
# steps (seeds 0-19, whole pools; 96% of steps) and 8.4e-9 over 1,274
# track-30 steps (seeds 0-5; 27%).  On wrap steps, up to 2.4e-3 (seed 195,
# episode 6, step 95 of track-3), where the two filters disagree outright.  "track" applies away from the
# wrap, "track-wrap" on wrap steps; a wrap step above 1e-3 still fails.
GAP_TOL = {"match": 1e-9, "track": 1e-6, "track-wrap": 1e-3}
WRAP_REACH = 2.0

STEPS = 100  # steps per tracking episode, as in the CLI's sim default

# A run is cut into slices of SLICE_S seconds, each opening with a fresh,
# timed set-up.  A shared virtual machine switches between a fast and a slow
# state, 1.4-1.6x apart, for a fraction of a second up to a minute (other
# tenants' load), and every timing moves with it.  So a timed host probe runs
# before the set-up, after it, and then every WINDOW_S seconds of operations.
# The probes cut the run into windows, each keyed by the slower of the two
# probes around it.  End-to-end metrics are taken over the quiet windows and
# set-ups: those whose key is within QUIET_MARGIN of the smallest, and at
# least the MIN_QUIET with the smallest keys.  The probe runs no plfilt code,
# so what the program does cannot decide which operations count.
SLICE_S = 0.5
WINDOW_S = 0.05
QUIET_MARGIN = 0.15
MIN_QUIET = 8

# End-to-end metrics reported by an untraced run: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "full.op_ms.p50": "ms",
    "pl.op_ms.p50": "ms",
    "full.ops_per_s": "1/s",
    "pl.ops_per_s": "1/s",
}
# Printed and saved with them, but left out of BENCHMARK.json: in a noisy
# period of the host the tail fattens while the median barely moves.  The
# p90 of ten track-3 runs spread by 0.13-0.39 of its median, beyond a third
# of the largest bound the format allows (0.25).
TAIL = {"full.op_ms.p90": "ms", "pl.op_ms.p90": "ms"}

# Per-layer metrics reported by a traced run.
PER_LAYER = {
    "full.filters.step.self_ms": "ms",
    "pl.filters.step.self_ms": "ms",
    "full.filters.kalman_update.self_ms": "ms",
    "pl.filters.kalman_update.self_ms": "ms",
    "full.moments.match.self_ms": "ms",
    "pl.moments.match.self_ms": "ms",
    "full.linalg.cholesky_full.self_ms": "ms",
    "pl.linalg.cholesky_full.self_ms": "ms",
    "pl.linalg.cholesky_partial.self_ms": "ms",
    "pl.linalg.permute.self_ms": "ms",
    "pl.cubature.unique.self_ms": "ms",
    "full.models.g_ms": "ms",
    "pl.models.g_ms": "ms",
    "full.models.bearings_ms": "ms",
    "pl.models.bearings_ms": "ms",
    "cubature.build_s": "s",
    "models.build_s": "s",
    "full.models.g_evals": "count",
    "pl.models.g_evals": "count",
    "full.linalg.factor_cols": "count",
    "pl.linalg.factor_cols": "count",
    "pl.cubature.dedup_ratio": "ratio",
    "check.max_gap_rel": "ratio",
    "trace.overhead_frac": "ratio",
}

# Failed operations are counted by the plfilt module that raised, or "check"
# for a failed output check.  Listed in the report, not as metrics: they are 0
# whenever the run is correct.
ERROR_LAYERS = ("cubature", "linalg", "moments", "models", "filters", "check")

# (metric suffix, role, span column): per-operation span sums; "self" is the
# span's self time, "dur" its whole duration including children.  The root
# span of an operation is "filters.step" on tracking and "moments.match" on
# moment matching; a role never entered in a mode sums to zero.
SPAN_TIMES = (
    ("filters.step.self_ms", "filters.step", "self"),
    ("filters.kalman_update.self_ms", "filters.kalman_update", "self"),
    ("moments.match.self_ms", "moments.match", "self"),
    ("linalg.cholesky_full.self_ms", "linalg.cholesky_full", "self"),
    ("linalg.cholesky_partial.self_ms", "linalg.cholesky_partial", "self"),
    ("linalg.permute.self_ms", "linalg.permute", "self"),
    ("cubature.unique.self_ms", "cubature.unique", "self"),
    ("models.g_ms", "models.g", "dur"),
    ("models.bearings_ms", "models.bearings", "dur"),
)


def _rel_gap(pairs) -> float:
    gap = 0.0
    for ref, other in pairs:
        gap = max(gap, float(np.abs(ref - other).max()) / (1.0 + float(np.abs(ref).max())))
    return gap


def _finite(*arrays) -> bool:
    return all(bool(np.isfinite(a).all()) for a in arrays)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class TrackingWorkload:
    """The CLI's sim scenario: Singer agents, bearings fused with reported
    states, spherical rule; back-to-back 100-step episodes."""

    kind = "track"
    root_role = "filters.step"

    def __init__(self, agents: int, episodes: int):
        self.agents = agents
        self.episodes = episodes
        self.singer = SingerParams(agents=agents)
        self.sensor = BearingSensorParams()

    def describe(self) -> str:
        x = 9 * self.agents
        return (
            f"fusion_model, {self.agents} agents (X={x}, Y={x + 2 * self.agents}, "
            f"Z={3 * self.agents}), spherical rule, {self.episodes} episodes x {STEPS} steps"
        )

    def make_inputs(self, seed: int):
        return [
            simulate_tracking(
                self.singer, self.sensor, STEPS, np.random.SeedSequence(entropy=(seed, e))
            )
            for e in range(self.episodes)
        ]

    @staticmethod
    def input_arrays(inputs):
        for data in inputs:
            yield from (data.truth, data.measurements, data.init_mean, data.init_cov)

    def build(self, inputs, rec=None):
        """The model; ``fusion_model`` builds the rules itself."""
        if rec is None:
            return fusion_model(self.singer, self.sensor)
        with rec.span("models.build"):
            return fusion_model(self.singer, self.sensor)

    def session(self, model, inputs):
        return TrackingSession(model, inputs, self.singer)


class TrackingSession:
    """Walks the episodes.  Both modes step from the same prior state; the
    ``full`` posterior carries the episode on, and a step whose ``full``
    operation failed ends the episode."""

    steps = {"full": lrkf_step, "pl": pl_lrkf_step}

    def __init__(self, model, episodes, singer):
        self.model = model
        self.episodes = episodes
        self.functions = (model.flow, model.measurement)
        # rows of the flow for each agent's x and y position, for the gate
        a_full, q_full = singer_model(singer)
        xy = [9 * i + j for i in range(singer.agents) for j in (0, 1)]
        self.xy_rows = a_full[xy]
        self.xy_q = np.diag(q_full)[xy]
        self._start(0)

    def _start(self, e: int):
        self.e = e % len(self.episodes)
        data = self.episodes[self.e]
        self.k = 0
        self.state = FilterState(k=0, mean=data.init_mean, cov=data.init_cov)

    def next_input(self):
        return self.state, self.episodes[self.e].measurements[self.k]

    def call(self, mode, inp):
        state, y = inp
        return self.steps[mode](state, self.model, y)

    @staticmethod
    def check(out):
        if not _finite(out.mean, out.cov):
            return "posterior is not finite"
        try:
            np.linalg.cholesky(out.cov)
        except np.linalg.LinAlgError:
            return "posterior covariance is not positive definite"
        return None

    @staticmethod
    def gap(full, pl) -> float:
        return _rel_gap(((full.mean, pl.mean), (full.cov, pl.cov)))

    def near_wrap(self, state) -> bool:
        """Whether a sigma point of some agent's predicted position may lie
        within WRAP_REACH of the azimuth's branch cut."""
        mean = self.xy_rows @ state.mean
        var = ((self.xy_rows @ state.cov) * self.xy_rows).sum(axis=1) + self.xy_q
        x, y = mean[0::2], mean[1::2]
        dist2 = np.where(x > 0.0, x * x + y * y, y * y)
        reach2 = WRAP_REACH**2 * state.mean.size * (var[0::2] + var[1::2])
        return bool((dist2 < reach2).any())

    def tolerance(self, inp) -> float:
        """The full/pl gap allowed for a step from this input."""
        return GAP_TOL["track-wrap" if self.near_wrap(inp[0]) else "track"]

    def advance(self, full_out):
        if full_out is None or self.k + 1 == STEPS:
            self._start(self.e + 1)
        else:
            self.state = full_out
            self.k += 1

    def g_evals(self) -> int:
        return sum(f.g_eval_count for f in self.functions)


class MatchWorkload:
    """Moment matching alone: ``benchmark_function`` under a Gauss-Hermite
    grid, inputs cycling through a seeded pool of (m, P) pairs."""

    kind = "match"
    root_role = "moments.match"

    def __init__(self, z: int, l: int, order: int, pool: int):
        self.z = z
        self.l = l
        self.order = order
        self.pool = pool

    def describe(self) -> str:
        x = self.z + self.l
        return (
            f"benchmark_function (Z, L) = ({self.z}, {self.l}), Gauss-Hermite order "
            f"{self.order} ({self.order ** x} points), pool of {self.pool} (m, P) pairs"
        )

    def make_inputs(self, seed: int):
        x = self.z + self.l
        pairs = []
        for i in range(self.pool):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 1, i)))
            m = rng.standard_normal(x)
            b = rng.standard_normal((x, x))
            pairs.append((m, b @ b.T + x * np.eye(x)))
        function_seed = np.random.SeedSequence(entropy=(seed, 0))
        return function_seed, pairs

    def input_arrays(self, inputs):
        function_seed, pairs = inputs
        yield benchmark_function(self.z, self.l, function_seed).a
        for m, p in pairs:
            yield from (m, p)

    def build(self, inputs, rec=None):
        """The function and the classified rule; ``full`` uses its base."""
        function_seed, _ = inputs
        x = self.z + self.l
        kind = RuleKind("gh", order=self.order)
        if rec is None:
            return benchmark_function(self.z, self.l, function_seed), make_classified(kind, x, self.z)
        with rec.span("models.build"):
            plf = benchmark_function(self.z, self.l, function_seed)
        with rec.span("cubature.build"):
            cr = make_classified(kind, x, self.z)
        return plf, cr

    def session(self, built, inputs):
        return MatchSession(built, inputs[1])


class MatchSession:

    def __init__(self, built, pairs):
        self.plf, self.cr = built
        self.rule = self.cr.base
        self.pairs = pairs
        self.i = 0

    def next_input(self):
        return self.pairs[self.i % len(self.pairs)]

    def call(self, mode, inp):
        m, p = inp
        if mode == "full":
            return match_full(self.plf, m, p, self.rule)
        return match_pl(self.plf, m, p, self.cr)

    @staticmethod
    def check(out):
        return None if _finite(out.m_y, out.p_xy, out.p_yy) else "matched moments are not finite"

    @staticmethod
    def gap(full, pl) -> float:
        return _rel_gap(((full.m_y, pl.m_y), (full.p_xy, pl.p_xy), (full.p_yy, pl.p_yy)))

    def advance(self, full_out):
        self.i += 1

    @staticmethod
    def tolerance(inp) -> float:
        return GAP_TOL["match"]

    def g_evals(self) -> int:
        return self.plf.g_eval_count


WORKLOADS = {
    "track-3": TrackingWorkload(agents=3, episodes=64),
    "track-30": TrackingWorkload(agents=30, episodes=8),
    "match-gh": MatchWorkload(z=3, l=5, order=3, pool=256),
}


def input_digest(workload, inputs) -> str:
    h = hashlib.sha256()
    for arr in workload.input_arrays(inputs):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# setup and the timed loop
# ---------------------------------------------------------------------------


_PROBE_MATRIX = np.random.default_rng(0).standard_normal((48, 48))


def host_probe() -> int:
    """Fixed work of both kinds an operation does, interpreted Python calls
    and small numpy/BLAS calls; the host's speed right now.  Returns its time
    in ns, about 1 ms on a quiet 2-vCPU Xeon."""
    a = _PROBE_MATRIX
    t0 = perf_counter_ns()
    acc = 0.0
    for i in range(400):
        acc += abs(-float(i)) % 7.0
    b = a
    for _ in range(20):
        b = a @ b
        b = b / np.abs(b).max()
        np.linalg.cholesky(b @ b.T + 48.0 * np.eye(48))
    return perf_counter_ns() - t0


def setup_once(workload, inputs, rec=None):
    """Construct rules and models, then run each mode's first operation,
    which fills the lazy caches.  Returns (session, seconds)."""
    t0 = perf_counter()
    if rec is not None:
        rec.begin_op("setup")
        root = rec.open(rec.name_id("setup"))
    try:
        session = workload.session(workload.build(inputs, rec), inputs)
        inp = session.next_input()
        for mode in MODES:
            session.call(mode, inp)
    finally:
        if rec is not None:
            rec.close(root)
    return session, perf_counter() - t0


def error_layer(exc: BaseException) -> str:
    """Module of plfilt that raised the innermost exception of the chain."""
    while exc.__cause__ is not None or exc.__context__ is not None:
        exc = exc.__cause__ or exc.__context__
    package = Path(plfilt.__file__).resolve().parent
    layer = "outside-plfilt"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = Path(frame.f_code.co_filename).resolve()
        if path.parent == package:
            layer = path.stem
    return layer


class Slice:
    """Samples and failures of one slice of a run."""

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.setup_s: float | None = None
        self.lat = {m: array("q") for m in MODES}
        # window of each latency: the index of the probe that opened it
        self.win = {m: array("q") for m in MODES}
        self.probes = array("q")  # probe times (ns) at the window boundaries
        self.setup_key = 0  # the slower probe around the set-up (ns)
        self.g_evals = {m: array("q") for m in MODES}
        self.attempted = 0
        self.failed = 0
        self.errors = Counter()
        self.first_error: str | None = None
        self.max_gap = 0.0
        self.pairs = 0

    def fail(self, layer: str, detail: str):
        self.failed += 1
        self.errors[layer] += 1
        if self.first_error is None:
            self.first_error = f"[{layer}] {detail}"

    def latencies(self, mode) -> np.ndarray:
        return np.frombuffer(self.lat[mode], dtype=np.int64)

    def window_keys(self) -> np.ndarray:
        """Key of each window: the slower of the probes around it."""
        p = np.frombuffer(self.probes, dtype=np.int64)
        return np.maximum(p[:-1], p[1:])

    def quiet_latencies(self, mode, limit) -> np.ndarray:
        """Latencies (ns) of ``mode`` in the windows keyed at most ``limit``."""
        keys = self.window_keys()[np.frombuffer(self.win[mode], dtype=np.int64)]
        return self.latencies(mode)[keys <= limit]


def run_slice(session, seconds: float, rec=None, root_role=None) -> Slice:
    """Closed loop for ``seconds``: pairs of operations, one per mode, on the
    same input; with ``rec``, each operation is a root span."""
    sl = Slice(traced=rec is not None)
    root = rec.name_id(root_role) if rec is not None else None
    sl.probes.append(host_probe())
    end = perf_counter_ns() + seconds * 1e9
    window_end = perf_counter_ns() + WINDOW_S * 1e9
    while perf_counter_ns() < end:
        if perf_counter_ns() >= window_end:
            sl.probes.append(host_probe())
            window_end = perf_counter_ns() + WINDOW_S * 1e9
        inp = session.next_input()
        outs, times = {}, {}
        for mode in MODES:
            sl.attempted += 1
            g0 = session.g_evals()
            try:
                if rec is None:
                    t0 = perf_counter_ns()
                    out = session.call(mode, inp)
                    t1 = perf_counter_ns()
                else:
                    rec.begin_op(mode)
                    i = rec.open(root)
                    try:
                        t0 = perf_counter_ns()
                        out = session.call(mode, inp)
                        t1 = perf_counter_ns()
                    finally:
                        rec.close(i)
            except Exception as exc:  # the loop must go on; the failure is recorded
                sl.fail(error_layer(exc), "".join(traceback.format_exception(exc)))
                continue
            sl.g_evals[mode].append(session.g_evals() - g0)
            reason = session.check(out)
            if reason is not None:
                sl.fail("check", f"{mode}: {reason}")
                continue
            outs[mode] = out
            times[mode] = t1 - t0
        if len(outs) == 2:
            gap = session.gap(outs["full"], outs["pl"])
            sl.max_gap = max(sl.max_gap, gap)
            tol = session.tolerance(inp)
            if not gap <= tol:
                sl.fail("check", f"full/pl gap {gap:.3e} > {tol:g}")
                del outs["pl"]
        for mode in outs:
            sl.lat[mode].append(times[mode])
            sl.win[mode].append(len(sl.probes) - 1)
        session.advance(outs.get("full"))
        sl.pairs += 1
    sl.probes.append(host_probe())
    return sl


def run_slices(workload, inputs, seconds: float, rec=None):
    """The timed part of a run: slices until ``seconds`` have passed.  Each
    slice opens with a fresh set-up, timed and then discarded; operations
    continue one session across slices.  With ``rec``, every second slice
    is traced.  Returns (slices, unmeasured roles)."""
    session, _ = setup_once(workload, inputs)  # pays the process's one-time costs
    slices = []
    unmeasured = set()
    start = perf_counter()
    while perf_counter() - start < seconds:
        traced = rec is not None and len(slices) % 2 == 1
        before = host_probe()
        with tracing.installed(rec) if traced else contextlib.nullcontext(set()) as missing:
            _, setup_s = setup_once(workload, inputs, rec if traced else None)
            sl = run_slice(session, SLICE_S, rec if traced else None, workload.root_role)
        unmeasured |= missing
        sl.setup_key = max(before, sl.probes[0])
        sl.setup_s = setup_s
        slices.append(sl)
    return slices, unmeasured


def quiet_limit(keys) -> float:
    """The largest quiet key: within QUIET_MARGIN of the smallest key, and
    at least the MIN_QUIET smallest."""
    ranked = np.sort(np.asarray(keys, dtype=np.float64))
    return max((1.0 + QUIET_MARGIN) * ranked[0], ranked[min(MIN_QUIET, ranked.size) - 1])


def window_limit(slices) -> float:
    return quiet_limit(np.concatenate([sl.window_keys() for sl in slices]))


def quiet_setups(slices) -> list:
    limit = quiet_limit([sl.setup_key for sl in slices])
    return [sl.setup_s for sl in slices if sl.setup_key <= limit]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(slices) -> dict:
    """Latency percentiles, throughput and set-up time over the quiet windows
    and set-ups."""
    values = {"setup_s": statistics.median(quiet_setups(slices))}
    limit = window_limit(slices)
    for mode in MODES:
        lat = np.concatenate([sl.quiet_latencies(mode, limit) for sl in slices]) / 1e6
        p50, p90 = np.percentile(lat, [50, 90]) if lat.size else (None, None)
        values[f"{mode}.op_ms.p50"] = None if p50 is None else float(p50)
        values[f"{mode}.op_ms.p90"] = None if p90 is None else float(p90)
        values[f"{mode}.ops_per_s"] = 1e3 * lat.size / float(lat.sum()) if lat.size else None
    return values


def ops_per_s(slices) -> float:
    """Operations of both modes per second of time spent in them."""
    lat = np.concatenate([sl.latencies(m) for sl in slices for m in MODES])
    return 1e9 * lat.size / float(lat.sum())


def _outermost(cols, names, indices, prefix):
    """Spans among ``indices`` named ``prefix*`` with no such ancestor."""
    keep = []
    for i in indices:
        if not names[cols["name"][i]].startswith(prefix):
            continue
        j = cols["parent"][i]
        while j >= 0 and not names[cols["name"][j]].startswith(prefix):
            j = cols["parent"][j]
        if j < 0:
            keep.append(i)
    return keep


def layer_metrics(rec, unmeasured, slices) -> dict:
    """Per-layer metrics: span sums per traced operation of each mode, the
    set-up split (median over the traced set-ups), counts and diagnostics.
    A metric resting on an unmeasured role is ``None``."""
    cols = rec.arrays()
    names = rec.names
    op_mode = np.array(rec.op_modes + [""])  # a span outside any op has op -1
    span_mode = op_mode[cols["op"]]
    values = {}

    def mask(role, mode):
        if role not in names:
            return np.zeros(span_mode.size, dtype=bool)
        return (cols["name"] == names.index(role)) & (span_mode == mode)

    for mode in MODES:
        n = int(np.count_nonzero(op_mode == mode))
        for suffix, role, col in SPAN_TIMES:
            name = f"{mode}.{suffix}"
            if name in PER_LAYER:
                measured = role not in unmeasured and n
                values[name] = float(cols[col][mask(role, mode)].sum()) / n / 1e6 if measured else None
        chol = ("linalg.cholesky_full", "linalg.cholesky_partial")
        if unmeasured.intersection(chol) or not n:
            values[f"{mode}.linalg.factor_cols"] = None
        else:
            sel = mask(chol[0], mode) | mask(chol[1], mode)
            values[f"{mode}.linalg.factor_cols"] = float(cols["work"][sel].sum()) / n
        evals = np.concatenate([np.frombuffer(sl.g_evals[mode], dtype=np.int64) for sl in slices])
        values[f"{mode}.models.g_evals"] = float(evals.mean()) if evals.size else None

    uq = mask("cubature.unique", "pl")
    classified = float(cols["base"][uq].sum())
    values["pl.cubature.dedup_ratio"] = (
        float(cols["work"][uq].sum()) / classified
        if "cubature.unique" not in unmeasured and classified
        else None
    )

    cub, mod = [], []
    for op in np.flatnonzero(op_mode == "setup"):
        idx = np.flatnonzero(cols["op"] == op)
        cub.append(sum(int(cols["dur"][i]) for i in _outermost(cols, names, idx, "cubature.")) / 1e9)
        mod.append(sum(int(cols["self"][i]) for i in idx if names[cols["name"][i]] == "models.build") / 1e9)
    values["cubature.build_s"] = None if "cubature.build" in unmeasured else statistics.median(cub)
    values["models.build_s"] = statistics.median(mod)

    values["check.max_gap_rel"] = max(sl.max_gap for sl in slices)
    traced = [sl for sl in slices if sl.traced]
    untraced = [sl for sl in slices if not sl.traced]
    values["trace.overhead_frac"] = ops_per_s(untraced) / ops_per_s(traced) - 1.0
    return values


def merged_errors(slices) -> Counter:
    errors = Counter()
    for sl in slices:
        errors.update(sl.errors)
    return errors


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit(root: Path) -> str | None:
    """HEAD commit read from the checkout's own ``.git``, if it has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, allocator: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "commit": _git_commit(root),
        "allocator": allocator,
    }


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, allocator: str = "default"):
    """One benchmark run.  Returns (report, recorder or None)."""
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(seed)
    digest = input_digest(workload, inputs)
    report = {
        "workload": name,
        "describe": workload.describe(),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs_sha256": digest,
        "env": environment(root, allocator),
        "gap_tol": {k: v for k, v in GAP_TOL.items() if k.startswith(workload.kind)},
    }
    rec = tracing.Recorder() if trace else None
    slices, unmeasured = run_slices(workload, inputs, seconds, rec)
    if trace:
        metrics = layer_metrics(rec, unmeasured, slices)
        report["unmeasured"] = sorted(unmeasured)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(slices)
        units = END_TO_END
    limit = window_limit(slices)
    attempted = sum(sl.attempted for sl in slices)
    failed = sum(sl.failed for sl in slices)
    report.update(
        slices=len(slices),
        windows=sum(sl.window_keys().size for sl in slices),
        quiet_windows=sum(int((sl.window_keys() <= limit).sum()) for sl in slices),
        quiet_setups=len(quiet_setups(slices)),
        pairs=sum(sl.pairs for sl in slices),
        quiet_samples={m: sum(sl.quiet_latencies(m, limit).size for sl in slices) for m in MODES},
        attempted=attempted,
        failed=failed,
        error_rate=failed / attempted,
        errors={**dict.fromkeys(ERROR_LAYERS, 0), **merged_errors(slices)},
        max_gap_rel=max(sl.max_gap for sl in slices),
        first_error=next((sl.first_error for sl in slices if sl.first_error), None),
        metrics={k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    )
    if not trace:
        report["tail"] = {k: {"value": metrics[k], "unit": u} for k, u in TAIL.items()}
    full50, pl50 = (metrics.get(f"{m}.op_ms.p50") for m in MODES)
    if full50 and pl50:
        report["speedup_info"] = full50 / pl50
    return report, rec


def write_outputs(report, rec, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if rec is not None:
        with gzip.open(out_dir / f"{stem}-spans.csv.gz", "wt", encoding="utf-8") as fh:
            rec.write_csv(fh)
    return stem


def print_report(report, stream=sys.stdout):
    env = report["env"]
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    lines = [
        f"workload {report['workload']}: {report['describe']}",
        f"seed {report['seed']}, {report['seconds']:g} s, trace {report['trace']}, "
        f"inputs sha256 {report['inputs_sha256']}",
        f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"blas {env['blas']['name']} {env['blas']['version']}, {threads}, "
        f"nproc {env['nproc']}, cpu {env['cpu']}, commit {env['commit']}",
        f"allocator: {env['allocator']}",
        f"{report['pairs']} pairs in {report['slices']} slices; quiet: "
        f"{report['quiet_setups']} set-ups, {report['quiet_windows']} of "
        f"{report['windows']} windows, samples {report['quiet_samples']}",
    ]
    for name, m in report["metrics"].items():
        value = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"  {name:40s} {value:>14s} {m['unit']}")
    for name, m in report.get("tail", {}).items():
        value = "none" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"  {name:40s} {value:>14s} {m['unit']} (reported, not gated)")
    lines.append(
        f"  {'error_rate':40s} {report['error_rate']:>14.6g} "
        f"({report['failed']}/{report['attempted']} operations)"
    )
    lines.append(
        "  failed operations by layer: "
        + ", ".join(f"{layer} {n}" for layer, n in report["errors"].items())
    )
    lines.append(
        f"  largest full/pl gap {report['max_gap_rel']:.3g} (tolerance "
        + ", ".join(f"{k} {v:g}" for k, v in report["gap_tol"].items()) + ")"
    )
    if "speedup_info" in report:
        lines.append(f"  full/pl p50 ratio (information only): {report['speedup_info']:.3f}")
    if report.get("unmeasured"):
        lines.append(f"  unmeasured layers: {', '.join(report['unmeasured'])}")
    if report["first_error"]:
        lines.append("first failure: " + report["first_error"].rstrip())
    stream.write("\n".join(lines) + "\n")


def result_line(report) -> str:
    return json.dumps(
        {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": report["metrics"],
        }
    )
