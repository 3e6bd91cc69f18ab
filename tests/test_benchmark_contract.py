"""The library names that the benchmark's tracer wraps, checked from the
library's side: a rename or an inlined helper in ``src/`` must not leave a
metric of ``BENCHMARK.json`` unmeasured.  A traced run reports such a metric
as ``null`` (or a time of 0) and still exits 0, so only a check like this one
sees it."""
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
from test_perfbench import traced_layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_every_role_resolves_a_target():
    with tracing.installed(tracing.Recorder()) as unmeasured:
        assert unmeasured == set()


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_traced_slice_measures_every_listed_metric(name):
    values = traced_layer_metrics(name, 1)
    missing = [m["name"] for m in SPEC["per_layer"] if values.get(m["name"]) is None]
    assert missing == []
    # a wrapped name that the step no longer calls reads 0, not None
    times = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("ms", "s")]
    idle = [name for name in times if values[name] <= 0]
    assert idle == []
