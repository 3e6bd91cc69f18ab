"""The pair runner's summary arithmetic, on canned perfbench result lines."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "perfpairs.py"
_SPEC = importlib.util.spec_from_file_location("perfpairs", _PATH)
perfpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perfpairs)


def _line(failed=0, attempted=100, **values):
    metrics = {
        name.replace("__", "."): {"value": value, "unit": "ms"} for name, value in values.items()
    }
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def _pairs(base, change, name="full__op_ms__p50", failed=(0, 0)):
    return [
        {
            "base": perfpairs.parse_result(_line(failed[0], **{name: b})),
            "change": perfpairs.parse_result(_line(failed[1], **{name: c})),
        }
        for b, c in zip(base, change)
    ]


def test_parse_result():
    line = _line(failed=2, full__op_ms__p50=1.5, pl__models__g_ms=None)
    assert perfpairs.parse_result(line) == {
        "attempted": 100,
        "failed": 2,
        "metrics": {"full.op_ms.p50": 1.5, "pl.models.g_ms": None},
    }


@pytest.mark.parametrize(
    "values, expected",
    [
        ([5.0], (5.0, 5.0, 5.0)),
        ([4.0, 1.0, 3.0, 2.0], (1.75, 2.5, 3.25)),
        ([10.0, 20.0, 30.0, 40.0, 50.0], (20.0, 30.0, 40.0)),
    ],
)
def test_quartiles_interpolate_like_numpy(values, expected):
    assert perfpairs.quartiles(values) == pytest.approx(expected, abs=0, rel=1e-15)


def test_summary_lower_is_better():
    base = [22.0, 21.0, 23.0, 22.5]
    change = [17.0, 21.5, 16.0, 22.5]  # one loss and one tie
    (row,) = perfpairs.summarize(_pairs(base, change), {"full.op_ms.p50": "lower"})
    assert row["metric"] == "full.op_ms.p50"
    assert row["wins"] == 2 and row["pairs"] == 4
    assert row["base"] == pytest.approx((21.75, 22.25, 22.625))
    assert row["change"] == pytest.approx((16.75, 19.25, 21.75))


def test_summary_higher_is_better_and_default_direction():
    base = [40.0, 50.0, 45.0]
    change = [55.0, 49.0, 60.0]
    pairs = _pairs(base, change, "full__ops_per_s")
    (higher,) = perfpairs.summarize(pairs, {"full.ops_per_s": "higher"})
    assert higher["wins"] == 2 and higher["better"] == "higher"
    (unlisted,) = perfpairs.summarize(pairs, {})
    assert unlisted["wins"] == 1 and unlisted["better"] == "lower"


def test_unmeasured_metric_left_out():
    pairs = [
        {
            "base": perfpairs.parse_result(_line(a=1.0, b=None)),
            "change": perfpairs.parse_result(_line(a=0.5, b=2.0)),
        }
    ]
    assert [row["metric"] for row in perfpairs.summarize(pairs, {})] == ["a"]
    assert perfpairs.unmeasured(pairs) == [f"{'b':40s} unmeasured on base in 1/1 pairs"]


def test_main_prints_unmeasured_metrics(tmp_path, monkeypatch, capsys):
    """A metric that is null on either side is printed with the side and the
    number of pairs, never dropped in silence."""
    lines = {  # (checkout, call on that side) -> result line
        ("base", 0): _line(full__op_ms__p50=2.0, setup_s=0.5, pl__op_ms__p50=1.0),
        ("base", 1): _line(full__op_ms__p50=2.0, setup_s=0.5, pl__op_ms__p50=None),
        ("change", 0): _line(full__op_ms__p50=1.0, setup_s=None, pl__op_ms__p50=None),
        ("change", 1): _line(full__op_ms__p50=1.0, setup_s=0.5, pl__op_ms__p50=None),
    }
    calls = {"base": 0, "change": 0}

    def run_side(checkout, workload, seed, seconds):
        side = checkout.name
        calls[side] += 1
        return lines[side, calls[side] - 1]

    monkeypatch.setattr(perfpairs, "run_side", run_side)
    for side in calls:
        (tmp_path / side).mkdir()
    args = [str(tmp_path / "base"), str(tmp_path / "change"), "--workload", "w"]
    assert perfpairs.main([*args, "--seconds", "1", "--pairs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == (
        "pair 1 (base first): full.op_ms.p50 2 -> 1; pl.op_ms.p50 1 -> unmeasured; "
        "setup_s 0.5 -> unmeasured; failed 0 -> 0; quiet windows no report -> no report"
    )
    assert out[1].startswith("pair 2 (change first): ")
    assert [line.split()[0] for line in out[3:]] == ["full.op_ms.p50"] + [
        "setup_s", "pl.op_ms.p50", "pl.op_ms.p50"
    ]
    assert out[-3:] == [
        f"{'setup_s':40s} unmeasured on change in 1/2 pairs",
        f"{'pl.op_ms.p50':40s} unmeasured on base in 1/2 pairs",
        f"{'pl.op_ms.p50':40s} unmeasured on change in 2/2 pairs",
    ]


def test_main_prints_speed_ratios(tmp_path, monkeypatch, capsys):
    """After the summary, each side's median over its runs of
    full.op_ms.p50 / pl.op_ms.p50."""
    runs = {  # checkout -> (full, pl) of its three runs; ratios 2.5, 3, 2 and 2, 2.2, 2.3
        "base": ((10.0, 4.0), (12.0, 4.0), (9.0, 4.5)),
        "change": ((8.0, 4.0), (8.8, 4.0), (9.2, 4.0)),
    }
    lines = {
        side: [_line(full__op_ms__p50=full, pl__op_ms__p50=pl) for full, pl in values]
        for side, values in runs.items()
    }
    monkeypatch.setattr(
        perfpairs, "run_side", lambda checkout, workload, seed, seconds: lines[checkout.name].pop(0)
    )
    for side in lines:
        (tmp_path / side).mkdir()
    args = [str(tmp_path / "base"), str(tmp_path / "change"), "--workload", "w"]
    assert perfpairs.main([*args, "--seconds", "1", "--pairs", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "full.op_ms.p50 / pl.op_ms.p50, median: 2.5 -> 2.2"
    assert out[-3].startswith("full.op_ms.p50 ") and out[-2].startswith("pl.op_ms.p50 ")


def test_speed_ratio_unmeasured():
    pairs = [
        {
            "base": perfpairs.parse_result(_line(full__op_ms__p50=2.0, pl__op_ms__p50=None)),
            "change": perfpairs.parse_result(_line(full__op_ms__p50=2.0, pl__op_ms__p50=1.0)),
        }
    ]
    assert perfpairs.speed_ratio(pairs, "base") is None
    assert perfpairs.speed_ratio(pairs, "change") == 2.0


def test_format_row():
    (row,) = perfpairs.summarize(_pairs([2.0, 4.0], [0.5, 2.5]), {})
    assert perfpairs.format_row(row) == (
        f"{'full.op_ms.p50':40s} 3 [2.5-3.5] -> 1.5 [1-2]  won 2/2 "
        "(lower is better); claim holds"
    )
    (row,) = perfpairs.summarize(
        _pairs([2.0, 4.0], [2.5, 4.5]), {}, {"full.op_ms.p50": 0.2}
    )
    assert perfpairs.format_row(row).endswith(
        "won 0/2 (lower is better); claim not met; within bound 0.2"
    )
    (row,) = perfpairs.summarize(
        _pairs([2.0, 4.0], [3.0, 5.0]), {}, {"full.op_ms.p50": 0.2}
    )
    assert perfpairs.format_row(row).endswith("claim not met; worse than bound 0.2")


BASE = [8.0, 7.9, 8.1, 7.8, 8.2, 8.0, 7.9, 8.1, 8.0, 8.0]  # quartiles 7.925-8.075


@pytest.mark.parametrize(
    "change, claim",
    [
        ([6.8] * 10, True),
        ([6.8] * 9 + [8.5], True),  # 9 of 10 won
        ([6.8] * 8 + [8.5, 8.5], False),  # 8 of 10 won
        ([6.8] * 8 + [8.0, 8.0], False),  # two ties, which count for neither side
        # every pair won, but the median is 0.1 below, inside the base's IQR of 0.15
        ([7.9, 7.8, 8.0, 7.7, 8.1, 7.8, 7.8, 8.0, 7.9, 7.9], False),
    ],
)
def test_claim_rule(change, claim):
    (row,) = perfpairs.summarize(_pairs(BASE, change), {"full.op_ms.p50": "lower"})
    assert row["claim"] is claim


def test_claim_rule_higher_is_better():
    base = [100.0 + i for i in range(10)]  # IQR 4.5
    pairs = _pairs(base, [b + 5.0 for b in base], "full__ops_per_s")
    (row,) = perfpairs.summarize(pairs, {"full.ops_per_s": "higher"})
    assert row["wins"] == 10 and row["claim"]
    lesser = _pairs(base, [b + 4.0 for b in base], "full__ops_per_s")
    (row,) = perfpairs.summarize(lesser, {"full.ops_per_s": "higher"})
    assert row["wins"] == 10 and not row["claim"]
    (row,) = perfpairs.summarize(pairs, {})  # read as lower is better
    assert row["wins"] == 0 and not row["claim"]


@pytest.mark.parametrize(
    "name, better, change, regressed",
    [
        ("full__op_ms__p50", "lower", 9.5, False),  # 19% worse, bound 0.2
        ("full__op_ms__p50", "lower", 10.5, True),  # 31% worse
        ("full__op_ms__p50", "lower", 6.0, False),  # better
        ("full__ops_per_s", "higher", 6.0, True),  # 25% fewer, bound 0.2
        ("full__ops_per_s", "higher", 7.0, False),
    ],
)
def test_bound_check(name, better, change, regressed):
    metric = name.replace("__", ".")
    pairs = _pairs([8.0, 8.0, 8.0], [change] * 3, name)
    (row,) = perfpairs.summarize(pairs, {metric: better}, {metric: 0.2})
    assert row["bound"] == 0.2 and row["regressed"] is regressed
    (row,) = perfpairs.summarize(pairs, {metric: better})
    assert row["bound"] is None and row["regressed"] is None


def test_better_directions_read_from_benchmark_file(tmp_path):
    assert perfpairs.better_directions(tmp_path) == {}
    assert perfpairs.regression_bounds(tmp_path) == {}
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps(
            {
                "end_to_end": [{"name": "full.ops_per_s", "better": "higher", "bound": 0.25}],
                "per_layer": [{"name": "pl.models.g_ms", "better": "lower"}],
            }
        )
    )
    assert perfpairs.better_directions(tmp_path) == {
        "full.ops_per_s": "higher",
        "pl.models.g_ms": "lower",
    }
    assert perfpairs.regression_bounds(tmp_path) == {"full.ops_per_s": 0.25}


@pytest.mark.parametrize(
    "failed, claim",
    [
        ((0, 0), True),
        ((3, 3), True),  # the same share on both sides
        ((3, 1), True),  # fewer failures on the change
        ((0, 1), False),  # a larger share fails on the change
    ],
)
def test_claim_needs_no_larger_failed_share(failed, claim):
    pairs = _pairs(BASE, [6.8] * 10, failed=failed)
    assert perfpairs.failed_share(pairs, "base") == failed[0] / 100
    (row,) = perfpairs.summarize(pairs, {"full.op_ms.p50": "lower"})
    assert row["wins"] == 10 and row["claim"] is claim


def test_failed_share_weighs_by_attempted():
    def line(failed, attempted):
        return perfpairs.parse_result(_line(failed, attempted, full__op_ms__p50=1.0))

    pairs = [
        {"base": line(1, 100), "change": line(0, 50)},
        {"base": line(0, 300), "change": line(1, 50)},
    ]
    assert perfpairs.failed_share(pairs, "base") == 1 / 400
    assert perfpairs.failed_share(pairs, "change") == 1 / 100


def _report(checkout, workload, seed, **fields):
    out = checkout / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    report = {"workload": workload, "seed": seed, "trace": 0, **fields}
    (out / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(report))


def test_window_counts_read_from_saved_report(tmp_path):
    assert perfpairs.window_counts(tmp_path, "track-3", 1) is None
    _report(tmp_path, "track-3", 1, quiet_windows=176, windows=200)
    assert perfpairs.window_counts(tmp_path, "track-3", 1) == (176, 200)
    assert perfpairs.window_counts(tmp_path, "track-3", 7) is None  # another seed
    _report(tmp_path, "track-30", 1, windows=12)
    assert perfpairs.window_counts(tmp_path, "track-30", 1) is None


def test_main_prints_quiet_windows_and_failed_share(tmp_path, monkeypatch, capsys):
    """Each pair line shows each run's quiet/total windows from the report
    that run saved, and the summary header each side's failed share."""
    counts = {"base": [(16, 1190), (170, 200)], "change": [(180, 200), (175, 200)]}
    lines = {"base": [_line(1, full__op_ms__p50=2.0)] * 2, "change": [_line(full__op_ms__p50=1.0)] * 2}

    def run_side(checkout, workload, seed, seconds):
        quiet, windows = counts[checkout.name].pop(0)
        _report(checkout, workload, seed, quiet_windows=quiet, windows=windows)
        return lines[checkout.name].pop(0)

    monkeypatch.setattr(perfpairs, "run_side", run_side)
    args = [str(tmp_path / "base"), str(tmp_path / "change"), "--workload", "track-3"]
    assert perfpairs.main([*args, "--seconds", "1", "--pairs", "2", "--seed", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith("; failed 1 -> 0; quiet windows 16/1190 -> 180/200")
    assert out[1].startswith("pair 2 (change first): ")
    assert out[1].endswith("; failed 1 -> 0; quiet windows 170/200 -> 175/200")
    assert out[2].endswith("; failed share 0.01 -> 0")
