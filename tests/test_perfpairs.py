"""The pair runner's summary arithmetic, on canned perfbench result lines."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "perfpairs.py"
_SPEC = importlib.util.spec_from_file_location("perfpairs", _PATH)
perfpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perfpairs)


def _line(failed=0, **values):
    metrics = {
        name.replace("__", "."): {"value": value, "unit": "ms"} for name, value in values.items()
    }
    return json.dumps(
        {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics}
    )


def _pairs(base, change, name="full__op_ms__p50"):
    return [
        {
            "base": perfpairs.parse_result(_line(**{name: b})),
            "change": perfpairs.parse_result(_line(**{name: c})),
        }
        for b, c in zip(base, change)
    ]


def test_parse_result():
    line = _line(failed=2, full__op_ms__p50=1.5, pl__models__g_ms=None)
    assert perfpairs.parse_result(line) == {
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


def test_format_row():
    (row,) = perfpairs.summarize(_pairs([2.0, 4.0], [1.0, 3.0]), {})
    assert perfpairs.format_row(row) == (
        f"{'full.op_ms.p50':40s} 3 [2.5-3.5] -> 2 [1.5-2.5]  won 2/2 (lower is better)"
    )


def test_better_directions_read_from_benchmark_file(tmp_path):
    assert perfpairs.better_directions(tmp_path) == {}
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps(
            {
                "end_to_end": [{"name": "full.ops_per_s", "better": "higher"}],
                "per_layer": [{"name": "pl.models.g_ms", "better": "lower"}],
            }
        )
    )
    assert perfpairs.better_directions(tmp_path) == {
        "full.ops_per_s": "higher",
        "pl.models.g_ms": "lower",
    }
