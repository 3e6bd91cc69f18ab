"""Harness behavior: config handling, CSV output, determinism, and the
README's config table."""
import io
import platform
import re
from pathlib import Path

import numpy as np
import pytest
import scipy

from plfilt import (
    BearingSensorParams,
    FilterState,
    SingerParams,
    fusion_model,
    lrkf_step,
    pl_lrkf_step,
    simulate_tracking,
)
from plfilt import cubature
from plfilt.cli import (
    DEFAULTS,
    _build_parser,
    bench_config_from,
    load_config_file,
    main,
    merged_config,
    run_bench,
    run_sim,
    sim_config_from,
    write_csv,
)

TIMING_COLUMNS = {"t_full_s", "t_pl_s", "speedup"}


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def stable_cells(header, rows):
    keep = [i for i, name in enumerate(header) if name not in TIMING_COLUMNS]
    return [[row[i] for i in keep] for row in rows]


class TestConfig:
    def test_file_parsing(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment\n"
            "seed = 99\n"
            "bench.rule = gh   # inline comment\n"
            "bench.gh_order = 2\n"
        )
        values = load_config_file(str(cfg_file))
        assert values == {"seed": "99", "bench.rule": "gh", "bench.gh_order": "2"}

    def test_override_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = 99\nbench.trials = 5\n")
        cfg = merged_config(str(cfg_file), {"seed": "7"})
        assert cfg["seed"] == "7"  # flag wins
        assert cfg["bench.trials"] == "5"  # file wins over default
        assert cfg["bench.rule"] == DEFAULTS["bench.rule"]

    def test_bench_config(self):
        cfg = merged_config(None, {"bench.rule": "ut", "bench.dims": "2x3,4x1"})
        bench = bench_config_from(cfg)
        assert bench.kind.name == "ut"
        assert bench.dims == ((2, 3), (4, 1))
        assert bench.modes == frozenset({"full", "pl"})

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("bench.trails = 5\nout = x.csv\nbench.trials = 5\n")
        with pytest.raises(ValueError, match=r"run\.cfg.*bench\.trails, out"):
            merged_config(str(cfg_file), {})

    def test_readme_table_matches_defaults(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        table = text.split("### Config keys", 1)[1].split("\n\n", 2)[1]
        keys = set()
        for line in table.splitlines()[2:]:  # skip the header and rule rows
            keys.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
        assert keys == set(DEFAULTS)

    def test_each_flag_sets_its_config_key(self):
        parser = _build_parser()
        settings = {
            command: set(vars(parser.parse_args([command]))) - {"command", "config", "out"}
            for command in ("bench", "sim")
        }
        assert settings == {
            "bench": {"seed"} | {k for k in DEFAULTS if k.startswith("bench.")},
            "sim": {"seed", "sim.agents", "sim.steps", "sim.filters"},
        }

    def test_bad_values(self):
        with pytest.raises(ValueError):
            bench_config_from(merged_config(None, {"bench.rule": "nope"}))
        with pytest.raises(ValueError):
            bench_config_from(merged_config(None, {"bench.dims": "0x3"}))
        with pytest.raises(ValueError):
            sim_config_from(merged_config(None, {"sim.filters": "everything"}))


class TestCsv:
    def test_quoting_and_line_endings(self):
        buf = io.StringIO()
        write_csv(buf, ["note"], ["a", "b"], [["x,y", 'he said "hi"']])
        text = buf.getvalue()
        assert text == '# note\na,b\n"x,y","he said ""hi"""\n'


class TestBench:
    def _run(self, overrides):
        cfg = bench_config_from(merged_config(None, overrides))
        comments, header, rows = run_bench(cfg)
        return comments, header, rows

    def test_deterministic_body(self):
        overrides = {"bench.rule": "sc", "bench.dims": "2x3,3x4", "bench.trials": "40"}
        _, header1, rows1 = self._run(overrides)
        _, header2, rows2 = self._run(overrides)
        assert header1 == header2
        assert stable_cells(header1, [list(map(str, r)) for r in rows1]) == stable_cells(
            header2, [list(map(str, r)) for r in rows2]
        )

    def test_delta_columns_small(self):
        _, header, rows = self._run(
            {"bench.rule": "sc", "bench.dims": "3x10", "bench.trials": "60"}
        )
        row = dict(zip(header, map(str, rows[0])))
        assert row["status"] == "ok"
        assert int(row["evals_full"]) == 26
        assert int(row["evals_pl"]) == 7
        for col in ("delta_m_y", "delta_p_xy", "delta_p_yy"):
            assert float(row[col]) <= 1e-7  # absolute norms on O(1e3) moments

    def test_two_mode_row_builds_its_rule_once(self, monkeypatch):
        # the structured mode classifies the full mode's rule rather than
        # building the same full-dimension rule a second time
        built = []
        build = cubature.spherical_rule
        monkeypatch.setattr(cubature, "spherical_rule", lambda x: built.append(x) or build(x))
        _, header, rows = self._run({"bench.rule": "sc", "bench.dims": "2x3", "bench.trials": "2"})
        assert dict(zip(header, map(str, rows[0])))["status"] == "ok"
        assert built == [5]

    def test_full_only_mode(self):
        _, header, rows = self._run(
            {"bench.rule": "sc", "bench.dims": "2x3", "bench.trials": "10", "bench.modes": "full"}
        )
        row = dict(zip(header, map(str, rows[0])))
        assert row["status"] == "full-only"
        assert row["delta_m_y"] == "" and row["t_pl_s"] == "" and row["evals_pl"] == ""
        assert row["t_full_s"] != ""

    def test_gh_budget_dash(self):
        _, header, rows = self._run(
            {
                "bench.rule": "gh",
                "bench.gh_order": "3",
                "bench.dims": "2x10",
                "bench.trials": "10",
                "bench.point_budget": "1000",
            }
        )
        row = dict(zip(header, map(str, rows[0])))
        assert row["status"] == "full-budget-exceeded"
        assert row["t_full_s"] == "" and row["delta_m_y"] == ""
        # structured mode still runs off the virtual rule
        assert row["t_pl_s"] != ""
        assert int(row["evals_pl"]) == 1 + 3**2 - 1

    def test_gh_within_budget_runs(self):
        _, header, rows = self._run(
            {
                "bench.rule": "gh",
                "bench.gh_order": "3",
                "bench.dims": "2x3",
                "bench.trials": "10",
            }
        )
        row = dict(zip(header, map(str, rows[0])))
        assert row["status"] == "ok"
        assert int(row["evals_full"]) == 3**5


class TestSim:
    def test_deterministic_and_both_filters(self):
        cfg = sim_config_from(
            merged_config(None, {"sim.agents": "2", "sim.steps": "12", "seed": "11"})
        )
        comments, header, rows = run_sim(cfg)
        _, header2, rows2 = run_sim(cfg)
        assert rows == rows2
        assert header[-1] == "mean_diff"
        for row in rows:
            assert float(row[-1]) <= 1e-8

    def test_single_filter_drops_diff_column(self):
        cfg = sim_config_from(
            merged_config(
                None, {"sim.agents": "1", "sim.steps": "5", "sim.filters": "lrkf"}
            )
        )
        _, header, rows = run_sim(cfg)
        assert "mean_diff" not in header
        assert all(col.endswith("_lrkf") for col in header[1:])
        assert len(rows) == 5


class TestSimNis:
    CFG = {"sim.agents": "2", "sim.steps": "12", "seed": "11"}

    def _columns(self):
        _, header, rows = run_sim(sim_config_from(merged_config(None, self.CFG)))
        return {name: np.array([float(row[i]) for row in rows]) for i, name in enumerate(header)}

    def test_column_order(self):
        header = list(self._columns())
        assert header[-3:] == ["env3_acc_pl", "nis_pl", "mean_diff"]
        assert header.index("nis_lrkf") == header.index("env3_acc_lrkf") + 1

    def test_filters_agree(self):
        cols = self._columns()
        assert np.all(cols["nis_pl"] > 0.0)
        assert np.abs(cols["nis_lrkf"] - cols["nis_pl"]).max() <= 1e-8 * cols["nis_pl"].max()

    def test_matches_solve_of_innovation_covariance(self):
        cols = self._columns()
        singer = SingerParams(agents=2)
        sensor = BearingSensorParams()
        model = fusion_model(singer, sensor)
        data = simulate_tracking(singer, sensor, 12, np.random.SeedSequence(entropy=(11,)))
        for step_fn, tag in ((lrkf_step, "lrkf"), (pl_lrkf_step, "pl")):
            state = FilterState(k=0, mean=data.init_mean, cov=data.init_cov)
            for k, y in enumerate(data.measurements):
                state = step_fn(state, model, y, keep_prediction=True)
                d = y - state.prediction.m_y
                ref = float(d @ np.linalg.solve(state.prediction.p_yy, d))
                assert abs(cols[f"nis_{tag}"][k] - ref) <= 1e-10 * ref, (tag, k)


class TestSimNeesAndEvaluations:
    CFG = {"sim.agents": "3", "sim.steps": "8", "seed": "11"}

    def _columns(self, cfg=None):
        _, header, rows = run_sim(sim_config_from(merged_config(None, cfg or self.CFG)))
        return {name: np.array([float(row[i]) for row in rows]) for i, name in enumerate(header)}

    def test_column_order(self):
        header = list(self._columns())
        for tag in ("lrkf", "pl"):
            assert header.index(f"g_evals_{tag}") == header.index(f"rms_pos_{tag}") - 1
            assert header.index(f"nees_{tag}") == header.index(f"rms_acc_{tag}") + 1
            assert header.index(f"env3_pos_{tag}") == header.index(f"nees_{tag}") + 1

    def test_g_evaluations_per_step(self):
        # the same exact counts as the benchmark's 3-agent tracking workload:
        # 2X = 54 points per match for the plain filter, and 1 + 2 flow and
        # 1 + 2*9 measurement columns for the structured one
        cols = self._columns()
        assert np.all(cols["g_evals_lrkf"] == 108)
        assert np.all(cols["g_evals_pl"] == 22)
        single = self._columns({**self.CFG, "sim.filters": "pl-lrkf"})
        assert np.all(single["g_evals_pl"] == 22)

    def test_matches_solve_of_posterior_covariance(self):
        cols = self._columns()
        singer = SingerParams(agents=3)
        sensor = BearingSensorParams()
        model = fusion_model(singer, sensor)
        data = simulate_tracking(singer, sensor, 8, np.random.SeedSequence(entropy=(11,)))
        for step_fn, tag in ((lrkf_step, "lrkf"), (pl_lrkf_step, "pl")):
            state = FilterState(k=0, mean=data.init_mean, cov=data.init_cov)
            for k, y in enumerate(data.measurements):
                state = step_fn(state, model, y)
                e = data.truth[k + 1] - state.mean
                ref = float(e @ np.linalg.solve(state.cov, e))
                assert abs(cols[f"nees_{tag}"][k] - ref) <= 1e-10 * ref, (tag, k)
        assert np.abs(cols["nees_lrkf"] - cols["nees_pl"]).max() <= 1e-8 * cols["nees_pl"].max()


def _comments(command):
    """The comment lines of a tiny ``bench`` or ``sim`` run."""
    if command == "bench":
        cfg = bench_config_from(merged_config(None, {"bench.dims": "2x3", "bench.trials": "2"}))
        return run_bench(cfg)[0]
    cfg = sim_config_from(merged_config(None, {"sim.agents": "1", "sim.steps": "2"}))
    return run_sim(cfg)[0]


class TestEnvironmentComments:
    @pytest.mark.parametrize("command", ["bench", "sim"])
    def test_versions_and_thread_variables(self, monkeypatch, command):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        comments = _comments(command)
        assert (
            f"versions: python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}"
        ) in comments
        assert (
            "blas threads: OPENBLAS_NUM_THREADS=3, OMP_NUM_THREADS=unset, MKL_NUM_THREADS=2"
        ) in comments

    @pytest.mark.parametrize("command", ["bench", "sim"])
    def test_blas_libraries(self, command):
        (line,) = [c for c in _comments(command) if c.startswith("blas libraries: ")]
        numpy_part, scipy_part = line.removeprefix("blas libraries: ").split(", ")
        for part, module in ((numpy_part, np), (scipy_part, scipy)):
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            assert part == f"{module.__name__} {blas['name']} {blas['version']}"


class TestMain:
    def test_bench_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(
            [
                "bench", "--rule", "sc", "--dims", "2x3", "--dims", "3x1", "--trials", "10",
                "--modes", "full", "--seed", "4", "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = parse_csv(out.read_text())
        assert header[0] == "rule"
        assert [(row[1], row[2], row[-1]) for row in rows] == [
            ("2", "3", "full-only"), ("3", "1", "full-only")
        ]

    def test_sim_to_stdout(self, capsys):
        code = main(["sim", "--agents", "1", "--steps", "3", "--seed", "2"])
        assert code == 0
        captured = capsys.readouterr()
        header, rows = parse_csv(captured.out)
        assert header[0] == "k" and len(rows) == 3

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sim", "--agents", "0"], "agent count must be >= 1, got 0"),
            (["sim", "--steps", "0"], "step count must be >= 1, got 0"),
            (["bench", "--trials", "0"], "trial count must be >= 1, got 0"),
            (["bench", "--dims", "3x"], "dims entry '3x' is not of the form ZxL"),
            (["bench", "--dims", "2x3", "--dims", "4"], "dims entry '4' is not of the form ZxL"),
            (["bench", "--config", "bad.cfg"], "bad.cfg:1: expected 'key = value', got 'trials\\n'"),
            (["sim", "--config", "missing.cfg"], "No such file or directory: 'missing.cfg'"),
            (["bench", "--config", "trials.cfg"], "bench.trials = 'abc' is not an integer"),
            (["sim", "--config", "agents.cfg"], "sim.agents = '2.5' is not an integer"),
        ],
        ids=[
            "agents", "steps", "trials", "dims-3x", "dims-4", "config-line", "config-missing",
            "config-trials", "config-agents",
        ],
    )
    def test_bad_setting_is_a_usage_error(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.cfg").write_text("trials\n")
        (tmp_path / "trials.cfg").write_text("bench.trials = abc\n")
        (tmp_path / "agents.cfg").write_text("sim.agents = 2.5\n")
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        last = captured.err.splitlines()[-1]
        assert last.startswith("plfilt: error: ") and last.endswith(message)
