"""Tests of the benchmark itself: the exact per-operation counts it reports,
span arithmetic, the unmeasured-layer rule, error attribution and the
correctness gate.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import json
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
from plfilt import FilterStepError, NotPositiveDefiniteError, cholesky_full  # noqa: E402
import plfilt.filters  # noqa: E402

# g evaluations per operation, (full, pl): C(X) on the plain path, 1 + the
# deduplicated nonlinear points on the structured one (flow + measurement for
# the filter steps)
G_EVALS = {"match-gh": (6561, 27), "track-3": (108, 22), "track-30": (1080, 184)}
# columns factorized per operation: X per full factorization, z per partial
FACTOR_COLS = {"match-gh": (8, 3), "track-3": (114, 70), "track-30": (1140, 691)}
DEDUP = {"match-gh": 26 / 6318, "track-3": 1.0, "track-30": 1.0}


def small_workload(name):
    """The named workload at its size, with a small input pool."""
    w = harness.WORKLOADS[name]
    if isinstance(w, harness.MatchWorkload):
        return harness.MatchWorkload(w.z, w.l, w.order, pool=4)
    return harness.TrackingWorkload(w.agents, episodes=1)


def traced_layer_metrics(name, seed):
    """One untraced and one traced slice, as ``run_slices`` alternates them."""
    workload = small_workload(name)
    inputs = workload.make_inputs(seed)
    session, _ = harness.setup_once(workload, inputs)
    untraced = harness.run_slice(session, 0.01)
    rec = tracing.Recorder()
    with tracing.installed(rec) as unmeasured:
        harness.setup_once(workload, inputs, rec)
        traced = harness.run_slice(session, 0.01, rec, workload.root_role)
    assert untraced.failed == traced.failed == 0
    return harness.layer_metrics(rec, unmeasured, [untraced, traced])


@pytest.mark.parametrize("name", sorted(G_EVALS))
def test_exact_counts_repeat(name):
    runs = [traced_layer_metrics(name, seed) for seed in (1, 2)]
    for values in runs:
        assert (values["full.models.g_evals"], values["pl.models.g_evals"]) == G_EVALS[name]
        assert (values["full.linalg.factor_cols"], values["pl.linalg.factor_cols"]) == FACTOR_COLS[name]
        assert values["pl.cubature.dedup_ratio"] == DEDUP[name]
    counts = [k for k, unit in harness.PER_LAYER.items() if unit == "count"]
    assert [runs[0][k] for k in counts] == [runs[1][k] for k in counts]


def test_missing_target_is_unmeasured_not_zero(monkeypatch):
    monkeypatch.setitem(
        tracing.ROLES, "linalg.permute", ((("plfilt.filters", "permute_moments_renamed"),), None, None)
    )
    original = plfilt.filters.kalman_update
    values = traced_layer_metrics("track-3", 1)
    assert plfilt.filters.kalman_update is original  # wrappers removed
    assert values["pl.linalg.permute.self_ms"] is None
    assert values["pl.filters.kalman_update.self_ms"] > 0.0


def test_self_time_subtracts_direct_children():
    rec = tracing.Recorder()
    rec.begin_op("full")
    with rec.span("outer") as outer:
        with rec.span("inner") as inner:
            with rec.span("leaf") as leaf:
                pass
    cols = rec.arrays()
    dur = cols["dur"]
    assert cols["self"][outer] == dur[outer] - dur[inner]
    assert cols["self"][inner] == dur[inner] - dur[leaf]
    assert cols["self"][leaf] == dur[leaf]
    assert list(cols["parent"]) == [-1, outer, inner]


def test_error_layer_follows_the_cause():
    with pytest.raises(NotPositiveDefiniteError) as direct:
        cholesky_full(-np.eye(3))
    assert harness.error_layer(direct.value) == "linalg"
    try:
        try:
            cholesky_full(-np.eye(3))
        except NotPositiveDefiniteError as exc:
            raise FilterStepError(1, "update", str(exc)) from exc
    except FilterStepError as wrapped:
        assert harness.error_layer(wrapped) == "linalg"


def test_gate_counts_disagreement_as_failure():
    workload = small_workload("match-gh")
    inputs = workload.make_inputs(1)
    session, _ = harness.setup_once(workload, inputs)

    class Skewed(harness.MatchSession):
        def call(self, mode, inp):
            out = super().call(mode, inp)
            if mode == "pl":
                out.m_y[0] += 1e-3
            return out

    skewed = Skewed((session.plf, session.cr), inputs[1])
    sl = harness.run_slice(skewed, 0.02)
    assert sl.pairs > 0
    assert sl.failed == sl.errors["check"] == sl.pairs
    assert len(sl.lat["pl"]) == 0 and len(sl.lat["full"]) == sl.pairs


def make_slice(probes, latencies, setup_key=100):
    """A slice with one operation per mode in each window."""
    sl = harness.Slice()
    sl.setup_s = setup_key / 1e4
    sl.setup_key = setup_key
    sl.probes.extend(probes)
    for mode in harness.MODES:
        for w, latency in enumerate(latencies):
            sl.lat[mode].append(latency)
            sl.win[mode].append(w)
    return sl


def test_quiet_windows_keep_the_fast_state(monkeypatch):
    # window keys: 300, 105, 400, 400, 140, 200
    sl = make_slice([300, 100, 105, 400, 108, 140, 200], [1000, 1001, 1002, 1003, 1004, 1005])
    monkeypatch.setattr(harness, "QUIET_MARGIN", 0.15)
    monkeypatch.setattr(harness, "MIN_QUIET", 1)
    assert list(sl.quiet_latencies("pl", harness.window_limit([sl]))) == [1001]
    monkeypatch.setattr(harness, "MIN_QUIET", 2)
    assert list(sl.quiet_latencies("pl", harness.window_limit([sl]))) == [1001, 1004]
    setups = [make_slice([100, 100], [1000], key) for key in (300, 100, 400, 110, 200)]
    assert harness.quiet_setups(setups) == [0.01, 0.011]


def test_window_slowed_by_the_program_still_counts():
    """Windows are picked by the host probe alone: a window whose operations
    are slow while the host is fast is kept, and its latencies show."""
    fast = make_slice([100] * 9, [1_000_000] * 8)
    slowed = make_slice([100] * 9, [1_000_000] * 3 + [9_000_000] + [1_000_000] * 4)
    assert sum(slowed.quiet_latencies("full", harness.window_limit([slowed]))) == 16_000_000
    assert (
        harness.end_to_end_metrics([slowed])["full.ops_per_s"]
        < harness.end_to_end_metrics([fast])["full.ops_per_s"]
    )


def test_tracking_gate_is_loose_only_near_the_wrap():
    workload = small_workload("track-3")
    inputs = workload.make_inputs(1)
    session, _ = harness.setup_once(workload, inputs)
    x = 9 * workload.agents
    cov = 0.05 * np.eye(x)
    far = np.zeros(x)
    far[0::9], far[1::9], far[2::9] = 30.0, 20.0, 5.0
    state = harness.FilterState(k=0, mean=far, cov=cov)
    assert session.tolerance((state, None)) == harness.GAP_TOL["track"]
    near = far.copy()
    near[9], near[10] = -30.0, 0.5  # second agent beside the negative x axis
    state = harness.FilterState(k=0, mean=near, cov=cov)
    assert session.tolerance((state, None)) == harness.GAP_TOL["track-wrap"]
    assert harness.GAP_TOL["track"] < harness.GAP_TOL["track-wrap"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} <= set(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
