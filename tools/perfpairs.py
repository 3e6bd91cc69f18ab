"""Run perfbench on two checkouts in alternating pairs and summarize them.

    python3 tools/perfpairs.py BASE CHANGE --workload track-30 --seconds 60 --pairs 10

BASE and CHANGE are two checkouts of the repository (for example a
``git archive`` of the parent commit and the working tree).  Each pair runs
``python3 <checkout>/perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once on each side, one after the other; the side that goes first
alternates from pair to pair, so a drift of the host hits both alike.  Every
run's settings are those ``run.py`` pins itself; this script sets nothing.

Each run's last line of standard output is perfbench's result line.  The
script prints every pair as it completes, with each run's quiet and total
windows from the report it saved under
``<checkout>/perfbench/out/<workload>-seed<seed>-trace0.json``, so a run
that fell in a slow state of the host shows.  It then prints each side's
share of failed operations over its runs, and one line per metric: the
median and the quartiles of each side, the number of pairs the change
won, whether a gain may be claimed, and, for a metric with a regression
bound, whether the change's median is worse than the base's by more than
that bound.  A last line gives each side's median over its runs of
``full.op_ms.p50 / pl.op_ms.p50``, for information only; it is left out
when neither side measured both in every run, which the lines on
unmeasured metrics already say.  A metric's better direction and bound
are read from the change's ``BENCHMARK.json`` (lower is better for a
metric it does not list).  A gain may be claimed when the change wins at
least nine tenths of the pairs, ties counting for neither, its median is
better than the base's by more than the distance between the base's
quartiles, and its share of failed operations is no larger than the
base's.  A bound is a share of the base's median.  A metric that is
unmeasured (``null``) in any run gets no summary; a line names the side
and the number of pairs instead.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")


def parse_result(line: str) -> dict:
    """perfbench's result line as ``{"attempted": int, "failed": int,
    "metrics": {name: value}}``; an unmeasured metric has the value
    ``None``."""
    result = json.loads(line)
    return {
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def failed_share(pairs: list[dict], side: str) -> float:
    """The share of ``side``'s operations that failed, over all its runs."""
    attempted = sum(pair[side]["attempted"] for pair in pairs)
    return sum(pair[side]["failed"] for pair in pairs) / attempted if attempted else 0.0


def window_counts(checkout: Path, workload: str, seed: int) -> tuple[int, int] | None:
    """``(quiet_windows, windows)`` from the report the last untraced run of
    ``workload`` and ``seed`` saved in ``checkout``; ``None`` when there is
    no such report or it lacks either count."""
    path = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
        return int(report["quiet_windows"]), int(report["windows"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated linearly
    between order statistics (numpy's default percentile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(
    pairs: list[dict], better: dict[str, str], bounds: dict[str, float] | None = None
) -> list[dict]:
    """One row per metric measured on both sides of every pair.

    ``pairs`` holds ``{"base": result, "change": result}`` with results as
    :func:`parse_result` returns them; ``better`` maps a metric to
    ``"lower"`` or ``"higher"`` and ``bounds`` to its regression bound.  A
    pair is won when the change's value is strictly better than the base's.
    ``claim`` tells whether a gain may be claimed, which needs the change's
    share of failed operations to be no larger than the base's;
    ``regressed`` whether the change's median is worse than the base's by
    more than the bound, and is ``None`` for a metric without one.
    """
    bounds = bounds or {}
    no_more_failures = failed_share(pairs, "change") <= failed_share(pairs, "base")
    rows = []
    names = pairs[0]["base"]["metrics"] if pairs else {}
    for name in names:
        values = {
            side: [pair[side]["metrics"].get(name) for pair in pairs] for side in SIDES
        }
        if any(v is None for side in SIDES for v in values[side]):
            continue
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        wins = sum(
            sign * c < sign * b for b, c in zip(values["base"], values["change"])
        )
        b1, b2, b3 = base = quartiles(values["base"])
        change = quartiles(values["change"])
        gain = sign * (b2 - change[1])  # positive when the change's median is better
        bound = bounds.get(name)
        rows.append(
            {
                "metric": name,
                "better": better.get(name, "lower"),
                "base": base,
                "change": change,
                "wins": wins,
                "pairs": len(pairs),
                "claim": no_more_failures and 10 * wins >= 9 * len(pairs) and gain > b3 - b1,
                "bound": bound,
                "regressed": None if bound is None else -gain > bound * abs(b2),
            }
        )
    return rows


def unmeasured(pairs: list[dict]) -> list[str]:
    """A line for each metric and side that is ``None`` in any pair, which
    :func:`summarize` leaves out: it names the side and the pairs."""
    names = dict.fromkeys(
        name for pair in pairs for side in SIDES for name in pair[side]["metrics"]
    )
    lines = []
    for name in names:
        for side in SIDES:
            missing = sum(pair[side]["metrics"].get(name) is None for pair in pairs)
            if missing:
                lines.append(f"{name:40s} unmeasured on {side} in {missing}/{len(pairs)} pairs")
    return lines


def speed_ratio(pairs: list[dict], side: str) -> float | None:
    """The median over ``side``'s runs of ``full.op_ms.p50 / pl.op_ms.p50``;
    ``None`` when either is unmeasured in any run."""
    ratios = []
    for pair in pairs:
        metrics = pair[side]["metrics"]
        full, pl = metrics.get("full.op_ms.p50"), metrics.get("pl.op_ms.p50")
        if full is None or pl is None:
            return None
        ratios.append(full / pl)
    return statistics.median(ratios)


def _cell(value) -> str:
    return "unmeasured" if value is None else f"{value:.6g}"


def format_row(row: dict) -> str:
    b1, b2, b3 = row["base"]
    c1, c2, c3 = row["change"]
    line = (
        f"{row['metric']:40s} {b2:.6g} [{b1:.6g}-{b3:.6g}] -> "
        f"{c2:.6g} [{c1:.6g}-{c3:.6g}]  won {row['wins']}/{row['pairs']} "
        f"({row['better']} is better); claim {'holds' if row['claim'] else 'not met'}"
    )
    if row["bound"] is not None:
        verdict = "worse than" if row["regressed"] else "within"
        line += f"; {verdict} bound {row['bound']:g}"
    return line


def _metric_entries(checkout: Path) -> list[dict]:
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return []
    spec = json.loads(path.read_text(encoding="utf-8"))
    return spec.get("end_to_end", []) + spec.get("per_layer", [])


def better_directions(checkout: Path) -> dict[str, str]:
    """Metric -> better direction, from a checkout's ``BENCHMARK.json``."""
    return {entry["name"]: entry.get("better", "lower") for entry in _metric_entries(checkout)}


def regression_bounds(checkout: Path) -> dict[str, float]:
    """Metric -> regression bound, for the metrics of a checkout's
    ``BENCHMARK.json`` that have one."""
    return {
        entry["name"]: float(entry["bound"])
        for entry in _metric_entries(checkout)
        if "bound" in entry
    }


def _windows_cell(counts: tuple[int, int] | None) -> str:
    return "no report" if counts is None else f"{counts[0]}/{counts[1]}"


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> str:
    """One untraced perfbench run of ``checkout``; returns its result line."""
    cmd = [
        sys.executable,
        str(checkout / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", f"{seconds:g}",
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return lines[-1]


def _parse(argv):
    parser = argparse.ArgumentParser(description="alternating perfbench pairs")
    parser.add_argument("base", type=Path, help="checkout of the base side")
    parser.add_argument("change", type=Path, help="checkout of the changed side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be >= 1 and --seconds positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    checkouts = {"base": args.base.resolve(), "change": args.change.resolve()}
    better = better_directions(checkouts["change"])
    bounds = regression_bounds(checkouts["change"])
    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair, windows = {}, {}
        for side in order:
            pair[side] = parse_result(run_side(checkouts[side], args.workload, args.seed, args.seconds))
            # read before the other side runs, in case both name one checkout
            windows[side] = window_counts(checkouts[side], args.workload, args.seed)
        pairs.append(pair)
        cells = [
            f"{name} {_cell(pair['base']['metrics'].get(name))} -> "
            f"{_cell(pair['change']['metrics'].get(name))}"
            for name in ("full.op_ms.p50", "pl.op_ms.p50", "setup_s")
        ]
        failed = f"failed {pair['base']['failed']} -> {pair['change']['failed']}"
        quiet = f"quiet windows {_windows_cell(windows['base'])} -> {_windows_cell(windows['change'])}"
        print(f"pair {i + 1} ({order[0]} first): {'; '.join(cells)}; {failed}; {quiet}", flush=True)
    shares = [failed_share(pairs, side) for side in SIDES]
    print(f"{args.workload}, {args.pairs} pairs of {args.seconds:g} s, seed {args.seed}: "
          f"median [quartiles] base -> change; failed share {shares[0]:.6g} -> {shares[1]:.6g}")
    for row in summarize(pairs, better, bounds):
        print(format_row(row))
    for line in unmeasured(pairs):
        print(line)
    ratios = [speed_ratio(pairs, side) for side in SIDES]
    if ratios != [None, None]:
        print(f"full.op_ms.p50 / pl.op_ms.p50, median: {_cell(ratios[0])} -> {_cell(ratios[1])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
