"""Command-line harness: moment-matching benchmarks and the tracking
simulation.  Results are written as CSV with deterministic bodies (timing
columns excepted) so runs can be diffed across machines and repeat runs.

Configuration is a flat ``key = value`` text file; command-line flags win
over file values, file values win over built-in defaults.  Streams are
derived per row/trial as ``SeedSequence(entropy=(seed, row, trial))`` on
numpy's PCG64 generator, which pins the drawn numbers across platforms.
"""
from __future__ import annotations

import argparse
import csv
import os
import platform
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy
from scipy.linalg import solve_triangular

from .cubature import DEFAULT_POINT_BUDGET, RuleKind, make_classified, make_rule
from .errors import PointBudgetExceededError
from .filters import FilterState, lrkf_step, pl_lrkf_step
from .linalg import cholesky_full
from .models import (
    BearingSensorParams,
    SingerParams,
    benchmark_function,
    fusion_model,
    simulate_tracking,
)
from .moments import match_full, match_pl

_TIMING_FLOOR_S = 0.2  # each timed mode accumulates at least this much wall time

# BLAS thread settings change step times several-fold on small machines
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _blas_library(module) -> str:
    """Name and version of the BLAS ``module`` (numpy or scipy) was built
    against, from its build configuration."""
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{module.__name__} {blas['name']} {blas['version']}"


def _environment_comments() -> list[str]:
    """Comment lines recording the interpreter and library versions, the
    BLAS builds of numpy and scipy (each wheel may bundle its own; every
    LAPACK call of a step runs on scipy's) and the BLAS thread variables,
    so a timing can be read against its setting."""
    threads = ", ".join(f"{var}={os.environ.get(var, 'unset')}" for var in _THREAD_VARS)
    return [
        f"versions: python {platform.python_version()}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}",
        f"blas libraries: {_blas_library(np)}, {_blas_library(scipy)}",
        f"blas threads: {threads}",
    ]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

DEFAULTS = {
    "seed": "1234",
    "bench.rule": "sc",
    "bench.ut_alpha": "1.0",
    "bench.ut_kappa": "2.0",
    "bench.gh_order": "3",
    "bench.dims": "3x10",
    "bench.trials": "10000",
    "bench.modes": "both",
    "bench.point_budget": str(DEFAULT_POINT_BUDGET),
    "sim.agents": "3",
    "sim.steps": "100",
    "sim.filters": "both",
    "singer.dt": "0.1",
    "singer.tau": "2.0",
    "singer.sigma_m2": "1.0",
    "sensor.sigma_alpha": "0.01",
    "sensor.reported_var": "0.1",
}


def load_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def merged_config(path: str | None, overrides: dict) -> dict:
    cfg = dict(DEFAULTS)
    if path:
        values = load_config_file(path)
        unknown = sorted(set(values) - set(DEFAULTS))
        if unknown:
            raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
        cfg.update(values)
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    return cfg


def _parse_dims(text: str):
    dims = []
    for part in str(text).replace(" ", "").split(","):
        if not part:
            continue
        z_txt, _, l_txt = part.partition("x")
        if not (z_txt.isdecimal() and l_txt.isdecimal()):
            raise ValueError(f"dims entry {part!r} is not of the form ZxL")
        z, l = int(z_txt), int(l_txt)
        if z < 1 or l < 1:
            raise ValueError(f"dims entries must be positive, got {part!r}")
        dims.append((z, l))
    if not dims:
        raise ValueError("no (Z, L) pairs given")
    return dims


def _parse_modes(text: str):
    aliases = {
        "both": {"full", "pl"},
        "full": {"full"},
        "pl": {"pl"},
        "lrkf": {"full"},
        "pl-lrkf": {"pl"},
    }
    if text not in aliases:
        raise ValueError(f"unknown mode {text!r} (expected full, pl or both)")
    return frozenset(aliases[text])


@dataclass(frozen=True)
class BenchConfig:
    """Settings for one benchmark invocation."""

    kind: RuleKind
    dims: tuple
    trials: int
    seed: int
    modes: frozenset
    point_budget: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trial count must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class SimConfig:
    """Settings for one tracking-simulation invocation."""

    singer: SingerParams
    sensor: BearingSensorParams
    steps: int
    seed: int
    filters: frozenset  # subset of {"full", "pl"}; full = plain filter

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"step count must be >= 1, got {self.steps}")


def _number(cfg: dict, key: str, kind: type):
    """``cfg[key]`` converted by ``kind`` (``int`` or ``float``); text that
    does not convert is refused with a ``ValueError`` naming the key."""
    text = cfg[key]
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} = {text!r} is not {what}") from None


def bench_config_from(cfg: dict) -> BenchConfig:
    name = cfg["bench.rule"]
    if name == "sc":
        kind = RuleKind("sc")
    elif name == "ut":
        kind = RuleKind(
            "ut",
            alpha=_number(cfg, "bench.ut_alpha", float),
            kappa=_number(cfg, "bench.ut_kappa", float),
        )
    elif name == "gh":
        kind = RuleKind("gh", order=_number(cfg, "bench.gh_order", int))
    else:
        raise ValueError(f"unknown rule {name!r} (expected sc, ut or gh)")
    return BenchConfig(
        kind=kind,
        dims=tuple(_parse_dims(cfg["bench.dims"])),
        trials=_number(cfg, "bench.trials", int),
        seed=_number(cfg, "seed", int),
        modes=_parse_modes(cfg["bench.modes"]),
        point_budget=_number(cfg, "bench.point_budget", int),
    )


def sim_config_from(cfg: dict) -> SimConfig:
    singer = SingerParams(
        dt=_number(cfg, "singer.dt", float),
        tau=_number(cfg, "singer.tau", float),
        sigma_m2=_number(cfg, "singer.sigma_m2", float),
        agents=_number(cfg, "sim.agents", int),
    )
    sensor = BearingSensorParams(
        sigma_alpha=_number(cfg, "sensor.sigma_alpha", float),
        reported_cov=_number(cfg, "sensor.reported_var", float) * np.eye(9),
    )
    return SimConfig(
        singer=singer,
        sensor=sensor,
        steps=_number(cfg, "sim.steps", int),
        seed=_number(cfg, "seed", int),
        filters=_parse_modes(cfg["sim.filters"]),
    )


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def write_csv(stream, comments, header, rows):
    """RFC-4180-style CSV with '#' comment lines first and LF endings."""
    for line in comments:
        stream.write(f"# {line}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# ---------------------------------------------------------------------------
# bench subcommand
# ---------------------------------------------------------------------------

MODES = ("full", "pl")  # full = plain matcher and filter, pl = structured
_MOMENTS = ("m_y", "p_xy", "p_yy")

BENCH_HEADER = [
    "rule", "z", "l", "x", "trials",
    "evals_full", "evals_pl",
    "delta_m_y", "delta_p_xy", "delta_p_yy",
    "t_full_s", "t_pl_s", "speedup", "status",
]


def _trial_inputs(seed: int, row: int, trial: int, x: int):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, row, trial)))
    m = rng.standard_normal(x)
    b = rng.standard_normal((x, x))
    p = b @ b.T + x * np.eye(x)
    return m, p


def _bench_row(cfg: BenchConfig, row: int, z: int, l: int):
    x = z + l
    plf = benchmark_function(z, l, np.random.SeedSequence(entropy=(cfg.seed, row)))
    status = "ok" if len(cfg.modes) == 2 else f"{''.join(cfg.modes)}-only"

    runs = {}  # mode -> (matcher, rule), full before pl
    if "full" in cfg.modes:
        try:
            runs["full"] = (match_full, make_rule(cfg.kind, x, cfg.point_budget))
        except PointBudgetExceededError:
            status = "full-budget-exceeded"
    if "pl" in cfg.modes:
        runs["pl"] = (match_pl, make_classified(cfg.kind, x, z, cfg.point_budget))

    m_w, p_w = _trial_inputs(cfg.seed, row, cfg.trials, x)  # warm-up inputs
    evals = {}
    for mode, (match, rule) in runs.items():
        plf.reset_g_eval_count()
        match(plf, m_w, p_w, rule)
        evals[mode] = plf.g_eval_count

    elapsed = dict.fromkeys(runs, 0.0)
    calls = dict.fromkeys(runs, 0)

    def timed(mode, m, p):
        match, rule = runs[mode]
        t0 = time.perf_counter()
        out = match(plf, m, p, rule)
        elapsed[mode] += time.perf_counter() - t0
        calls[mode] += 1
        return out

    gaps = dict.fromkeys(_MOMENTS, 0.0)
    for trial in range(cfg.trials):
        m, p = _trial_inputs(cfg.seed, row, trial, x)
        out = {mode: timed(mode, m, p) for mode in runs}
        if len(out) == 2:
            for name in _MOMENTS:
                gap = getattr(out["full"], name) - getattr(out["pl"], name)
                gaps[name] += float(np.linalg.norm(gap))
    # top up short timings with extra repetitions on the warm-up inputs
    for mode in runs:
        while elapsed[mode] < _TIMING_FLOOR_S:
            timed(mode, m_w, p_w)

    mean = {mode: elapsed[mode] / calls[mode] for mode in runs}
    return [
        cfg.kind.label(), z, l, x, cfg.trials,
        *(evals.get(mode, "") for mode in MODES),
        *(_fmt(gaps[name] / cfg.trials) if len(runs) == 2 else "" for name in _MOMENTS),
        *(f"{mean[mode]:.6e}" if mode in mean else "" for mode in MODES),
        f"{mean['full'] / mean['pl']:.6e}" if len(runs) == 2 else "",
        status,
    ]


def run_bench(cfg: BenchConfig):
    comments = [
        "plfilt bench",
        "rng: numpy PCG64, streams SeedSequence(entropy=(seed, row, trial))",
        f"seed: {cfg.seed}",
        "nondeterministic columns: t_full_s, t_pl_s, speedup",
        *_environment_comments(),
    ]
    rows = [_bench_row(cfg, i, z, l) for i, (z, l) in enumerate(cfg.dims)]
    return comments, BENCH_HEADER, rows


# ---------------------------------------------------------------------------
# sim subcommand
# ---------------------------------------------------------------------------


def _block_indices(n_agents: int):
    pos, vel, acc = [], [], []
    for i in range(n_agents):
        pos.extend(range(9 * i, 9 * i + 3))
        vel.extend(range(9 * i + 3, 9 * i + 6))
        acc.extend(range(9 * i + 6, 9 * i + 9))
    return np.array(pos), np.array(vel), np.array(acc)


def _normalized_squared(cov: np.ndarray, d: np.ndarray) -> float:
    """``dᵀ cov⁻¹ d`` as ``eᵀe``, ``e = L⁻¹ d`` with ``L`` the Cholesky
    factor of ``cov``: the NIS of an innovation against the predicted
    measurement covariance, the NEES of an estimate error against the
    posterior covariance."""
    e = solve_triangular(cholesky_full(cov), d, lower=True)
    return float(e @ e)


def run_sim(cfg: SimConfig):
    data = simulate_tracking(
        cfg.singer, cfg.sensor, cfg.steps, np.random.SeedSequence(entropy=(cfg.seed,))
    )
    model = fusion_model(cfg.singer, cfg.sensor)
    blocks = _block_indices(cfg.singer.agents)
    labels = {"full": "lrkf", "pl": "pl"}
    runners = {"full": lrkf_step, "pl": pl_lrkf_step}
    active = [m for m in MODES if m in cfg.filters]

    header = ["k"]
    for mode in active:
        tag = labels[mode]
        header += [f"g_evals_{tag}", f"rms_pos_{tag}", f"rms_vel_{tag}", f"rms_acc_{tag}"]
        header += [f"nees_{tag}", f"env3_pos_{tag}", f"env3_vel_{tag}", f"env3_acc_{tag}"]
        header.append(f"nis_{tag}")
    if len(active) == 2:
        header.append("mean_diff")

    states = {
        mode: FilterState(k=0, mean=data.init_mean.copy(), cov=data.init_cov.copy())
        for mode in active
    }
    rows = []
    for k in range(1, cfg.steps + 1):
        y = data.measurements[k - 1]
        row = [k]
        for mode in active:
            model.flow.reset_g_eval_count()
            model.measurement.reset_g_eval_count()
            states[mode] = runners[mode](states[mode], model, y, keep_prediction=True)
            row.append(model.flow.g_eval_count + model.measurement.g_eval_count)
            err = states[mode].mean - data.truth[k]
            var = np.diag(states[mode].cov)
            for idx in blocks:
                row.append(_fmt(float(np.sqrt(np.mean(err[idx] ** 2)))))
            row.append(_fmt(_normalized_squared(states[mode].cov, err)))
            for idx in blocks:
                row.append(_fmt(3.0 * float(np.sqrt(np.mean(var[idx])))))
            pred = states[mode].prediction
            row.append(_fmt(_normalized_squared(pred.p_yy, y - pred.m_y)))
        if len(active) == 2:
            row.append(_fmt(float(np.linalg.norm(states["full"].mean - states["pl"].mean))))
        rows.append(row)

    comments = [
        "plfilt sim",
        "rng: numpy PCG64, stream SeedSequence(entropy=(seed,))",
        f"seed: {cfg.seed}",
        f"agents: {cfg.singer.agents}, steps: {cfg.steps}",
        *_environment_comments(),
    ]
    return comments, header, rows


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="master RNG seed")
    parser.add_argument("--out", help="output path (default: stdout)")


def _build_parser():
    """Each setting's ``dest`` is its key in :data:`DEFAULTS`."""
    parser = argparse.ArgumentParser(
        prog="plfilt", description="moment-matching and tracking experiment harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="compare full vs structured moment matching")
    _add_common(bench)
    bench.add_argument("--rule", dest="bench.rule", choices=("sc", "ut", "gh"))
    bench.add_argument("--ut-alpha", dest="bench.ut_alpha", type=float)
    bench.add_argument("--ut-kappa", dest="bench.ut_kappa", type=float)
    bench.add_argument("--gh-order", dest="bench.gh_order", type=int)
    bench.add_argument(
        "--dims", dest="bench.dims", action="append", metavar="ZxL",
        help="nonlinear x linear sizes, repeatable",
    )
    bench.add_argument("--trials", dest="bench.trials", type=int)
    bench.add_argument("--modes", dest="bench.modes", choices=("full", "pl", "both"))
    bench.add_argument("--point-budget", dest="bench.point_budget", type=int)

    sim = sub.add_parser("sim", help="run the tracking comparison")
    _add_common(sim)
    sim.add_argument("--agents", dest="sim.agents", type=int)
    sim.add_argument("--steps", dest="sim.steps", type=int)
    sim.add_argument(
        "--modes", dest="sim.filters", choices=("full", "pl", "both", "lrkf", "pl-lrkf")
    )
    return parser


# command -> (settings from the merged config, runner, what a row counts)
_COMMANDS = {
    "bench": (bench_config_from, run_bench, "rows"),
    "sim": (sim_config_from, run_sim, "steps"),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config_from, run, unit = _COMMANDS[args.command]
    overrides = {  # config values are text; the repeated --dims join to "ZxL,ZxL"
        key: ",".join(value) if isinstance(value, list) else str(value)
        for key, value in vars(args).items()
        if key in DEFAULTS and value is not None
    }
    try:
        settings = config_from(merged_config(args.config, overrides))
    except (OSError, ValueError) as exc:  # a bad setting, not a failed run
        parser.error(str(exc))
    started = time.perf_counter()
    comments, header, rows = run(settings)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, comments, header, rows)
    else:
        write_csv(sys.stdout, comments, header, rows)
    print(
        f"{args.command}: {len(rows)} {unit} in {time.perf_counter() - started:.2f} s",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
