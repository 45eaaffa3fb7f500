import argparse
import csv
import importlib.util
import io
import math
import os
import time
from contextlib import redirect_stdout

import pytest

from butterflyshift import cli, critical
from butterflyshift.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_ORACLE_FAIL,
    ConfigError,
    RunConfig,
    main,
    make_parser,
)
from butterflyshift.model import REFERENCE

CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "reference.cfg")
REFERENCE_OUTPUTS = os.path.join(os.path.dirname(__file__), "..", "scripts",
                                 "reference_outputs.py")


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_malformed_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("alpha = 1.0\nbogus_knob = 3\n")
        code, _ = run(["critical", "--config", str(bad)])
        assert code == EXIT_CONFIG
        assert "bogus_knob" in capsys.readouterr().err

    def test_bad_value_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("alpha = banana\n")
        code, _ = run(["critical", "--config", str(bad)])
        assert code == EXIT_CONFIG
        assert "alpha" in capsys.readouterr().err

    def test_flag_overrides_file(self, tmp_path):
        code, out = run(["critical", "--config", CFG, "--delta", "2.0"])
        assert code == EXIT_OK
        code2, out2 = run(["critical", "--config", CFG])
        assert out != out2

    def test_invalid_param_value_exits_2(self, tmp_path):
        for argv in (["critical", "--alpha", "-3"],
                     ["curves", "--config", CFG, "--beta-start", "1", "--beta-stop", "0.5",
                      "--out", str(tmp_path / "c.csv"), "--svg"]):
            code, _ = run(argv)
            assert code == EXIT_CONFIG, argv


    def test_non_finite_beta_grid_exits_2(self, tmp_path):
        # every comparison with NaN is False, so these passed the range
        # checks, and the curves grid never reached a NaN or infinite end
        for bad in ({"beta_start": math.nan}, {"beta_stop": math.nan},
                    {"beta_stop": math.inf}, {"beta_step": math.nan},
                    {"beta_step": math.inf}):
            with pytest.raises(ConfigError, match="finite"):
                RunConfig(params=REFERENCE, **bad)
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("beta_stop = nan\n")
        code, _ = run(["curves", "--config", str(cfg)])
        assert code == EXIT_CONFIG

    def test_oversized_beta_grid_exits_2(self):
        # finite ranges that would ask _beta_grid for about 1e302 points
        for bad in ({"beta_stop": 1e300}, {"beta_stop": 1.0, "beta_step": 1e-300}):
            with pytest.raises(ConfigError, match="beta grid"):
                RunConfig(params=REFERENCE, **bad)
        cap = cli.MAX_GRID_POINTS
        RunConfig(params=REFERENCE, beta_stop=cap - 1.0, beta_step=1.0)  # cap points
        with pytest.raises(ConfigError, match="beta grid"):
            RunConfig(params=REFERENCE, beta_stop=float(cap), beta_step=1.0)
        code, _ = run(["curves", "--beta-stop", "1e9"])
        assert code == EXIT_CONFIG

    def test_unresolvable_beta_step_exits_2(self, tmp_path):
        # start + k*step stops advancing once the step is below the spacing of
        # doubles, where (stop - start) / step reads 0: at 1e17 the grid
        # repeated one point 801 times, and at 1e300 it never ended
        for bad in ({"beta_start": 1e17, "beta_stop": 1e17},
                    {"beta_start": 1e300, "beta_stop": 1e300},
                    {"beta_stop": 1e-11, "beta_step": 1e-13}):
            with pytest.raises(ConfigError, match="resolution"):
                RunConfig(params=REFERENCE, **bad)
        out = tmp_path / "never.csv"
        code, _ = run(["curves", "--beta-start", "1e300", "--beta-stop", "1e300",
                       "--out", str(out)])
        assert code == EXIT_CONFIG and not out.exists()
        # just above the resolution every point is its own
        for ok in ({"beta_stop": 1e-9, "beta_step": 2e-12},
                   {"beta_start": 1e3, "beta_stop": 1e3 + 1e-9, "beta_step": 2e-12},
                   {"beta_start": 2.0 ** 40, "beta_stop": 2.0 ** 40 + 0.01, "beta_step": 1e-3}):
            grid = cli._beta_grid(RunConfig(params=REFERENCE, **ok))
            assert len(grid) > 1 and grid == sorted(set(grid)), ok

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        for argv in (["critical", "--out", str(missing / "x.csv")],
                     ["curves", "--out", str(missing / "x.csv"), "--svg"]):
            code, _ = run([argv[0], "--config", CFG, *argv[1:]])
            assert code == EXIT_CONFIG, argv
            err = capsys.readouterr().err
            assert err.startswith("config error: cannot write") and err.count("\n") == 1, err
        # the CSV is written and the SVG path is a directory
        (tmp_path / "x.svg").mkdir()
        code, _ = run(["curves", "--config", CFG, "--out", str(tmp_path / "x.csv"), "--svg"])
        assert code == EXIT_CONFIG
        assert "cannot write" in capsys.readouterr().err
        assert not missing.exists()

    def test_unwritable_output_exits_2_before_computing(self, tmp_path, monkeypatch, capsys):
        calls = []
        for name in ("critical_set", "pressure_sample"):
            fn = getattr(critical, name)
            monkeypatch.setattr(critical, name,
                                lambda *a, fn=fn: calls.append(a) or fn(*a))
        out = str(tmp_path / "missing" / "x.csv")
        for argv in (["critical"], ["curves", "--beta-step", "0.002"], ["equilibria"],
                     ["sweep", "--param", "delta", "--values", "1,2"]):
            code, stdout = run([argv[0], "--config", CFG, *argv[1:], "--out", out])
            assert code == EXIT_CONFIG, argv
            assert calls == [] and stdout == "", argv
            assert capsys.readouterr().err.startswith("config error: cannot write"), argv

    def test_config_error_before_the_run_leaves_no_file(self, tmp_path):
        out = tmp_path / "x.csv"
        for argv in (["sweep", "--param", "L", "--values", "1,2.5"],
                     ["sweep", "--param", "L", "--values", ","],
                     ["equilibria", "--beta-star", "-1"],
                     ["curves", "--beta-start", "1", "--beta-stop", "0.5"]):
            code, _ = run([argv[0], "--config", CFG, *argv[1:], "--out", str(out)])
            assert code == EXIT_CONFIG, argv
            assert not out.exists(), argv


class TestFlagSets:
    MODEL = {"--config", "--variant", "--alpha", "--gamma", "--delta", "--epsilon", "--L"}

    def test_each_command_takes_only_the_flags_it_reads(self):
        sub = next(a for a in make_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {name: {opt for a in p._actions for opt in a.option_strings
                        if opt not in ("-h", "--help")}
                 for name, p in sub.choices.items()}
        assert flags == {
            "critical": self.MODEL | {"--out"},
            "curves": self.MODEL | {"--beta-start", "--beta-stop", "--beta-step",
                                    "--out", "--svg"},
            "equilibria": self.MODEL | {"--out", "--beta-star"},
            "oracle": self.MODEL | {"--n-return", "--n-period", "--n-ln", "--corrupt-edge"},
            "sweep": self.MODEL | {"--out", "--param", "--values"},
        }
        assert sum(map(len, flags.values())) == 50

    def test_flag_the_command_does_not_read_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in (["oracle", "--out", "t.csv"], ["critical", "--svg"],
                     ["sweep", "--param", "L", "--values", "1", "--beta-step", "0.1"],
                     ["sweep", "--param", "variant", "--values", "B"],
                     ["curves", "--n-return", "8"], ["equilibria", "--n-ln", "6"]):
            with pytest.raises(SystemExit) as exc:
                run([argv[0], "--config", CFG, *argv[1:]])
            assert exc.value.code == EXIT_CONFIG, argv
        assert not list(tmp_path.iterdir())


class TestCritical:
    def test_prints_transitions(self):
        code, out = run(["critical", "--config", CFG])
        assert code == EXIT_OK
        assert "beta_1" in out and "beta_c" in out and "zeta" in out
        b1 = float(out.split("beta_1 = ")[1].split()[0])
        bc = float(out.split("beta_c = ")[1].split()[0])
        assert b1 < bc

    def test_csv_record(self, tmp_path):
        out_path = tmp_path / "crit.csv"
        code, _ = run(["critical", "--config", CFG, "--out", str(out_path)])
        assert code == EXIT_OK
        rows = read_csv(out_path)
        assert len(rows) == 1
        assert float(rows[0]["zeta_eps_beta_lo"]) > 5.0
        assert abs(float(rows[0]["residual_lo"])) < 1e-9


class TestCurves:
    def test_csv_schema_and_invariants(self, tmp_path):
        out_path = tmp_path / "curves.csv"
        code, _ = run(["curves", "--config", CFG, "--beta-stop", "1.1",
                       "--beta-step", "0.05", "--out", str(out_path)])
        assert code == EXIT_OK
        rows = read_csv(out_path)
        assert list(rows[0].keys()) == ["beta", "p34", "p_mid", "p_full", "ztilde", "regime"]
        betas = [float(r["beta"]) for r in rows]
        assert betas == sorted(betas) and len(set(betas)) == len(betas)
        for r in rows:
            assert float(r["p_full"]) >= float(r["p_mid"]) - 1e-10
            assert float(r["p_mid"]) >= float(r["p34"]) - 1e-10
            if r["regime"] == "above_hi":
                assert r["p_full"] == r["p34"]
                assert r["ztilde"] == ""

    def test_deterministic_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _ = run(["curves", "--config", CFG, "--beta-stop", "0.4",
                           "--beta-step", "0.1", "--out", str(path)])
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_one_pressure_sample_call_per_point(self, tmp_path, monkeypatch):
        # a wrapper on critical.pressure_sample sees each grid point once, so
        # a hook there (the benchmark's per-point timing) can stamp every point
        calls = []
        real = critical.pressure_sample

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(critical, "pressure_sample", counted)
        out_path = tmp_path / "curves.csv"
        code, _ = run(["curves", "--config", CFG, "--out", str(out_path)])
        assert code == EXIT_OK
        rows = read_csv(out_path)
        assert len(rows) == 121
        assert calls == [float(r["beta"]) for r in rows]

    def test_svg_written(self, tmp_path):
        out_path = tmp_path / "curves.csv"
        code, _ = run(["curves", "--config", CFG, "--beta-stop", "1.1",
                       "--beta-step", "0.1", "--out", str(out_path), "--svg"])
        assert code == EXIT_OK
        svg = (tmp_path / "curves.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg and "beta_lo" in svg

    def test_svg_from_config_file(self, tmp_path, capsys):
        out_path = tmp_path / "curves.csv"
        cfg = tmp_path / "svg.cfg"
        cfg.write_text("beta_stop = 1.1\nbeta_step = 0.1\nsvg = yes\n")
        code, _ = run(["curves", "--config", str(cfg), "--out", str(out_path)])
        assert code == EXIT_OK
        assert (tmp_path / "curves.svg").read_text().startswith("<svg")
        capsys.readouterr()
        cfg.write_text("svg = maybe\n")
        code, _ = run(["curves", "--config", str(cfg), "--out", str(out_path)])
        assert code == EXIT_CONFIG
        assert "not a boolean" in capsys.readouterr().err


class TestEquilibria:
    def test_reference_verdicts(self):
        code, out = run(["equilibria", "--config", CFG])
        assert code == EXIT_OK
        assert "at_beta_lo" in out and "at_beta_hi" in out
        assert "no equilibrium state gives weight" in out

    def test_large_L_verdict(self):
        code, out = run(["equilibria", "--config", CFG, "--L", "250"])
        assert code == EXIT_OK
        assert "at least 2 equilibrium states; weight on [1]" in out

    def test_variant_b(self):
        code, out = run(["equilibria", "--config", CFG, "--variant", "B"])
        assert code == EXIT_OK
        assert "two equilibrium states (one per wing)" in out

    def test_bad_beta_star_exits_2(self, capsys):
        for bad in ("-1", "nan", "inf"):
            code, out = run(["equilibria", "--config", CFG, "--beta-star", bad])
            assert code == EXIT_CONFIG, bad
            assert out == ""
            assert "--beta-star" in capsys.readouterr().err


class TestOracleCmd:
    def test_pass_on_reference(self):
        code, out = run(["oracle", "--config", CFG, "--n-return", "16",
                         "--n-period", "8", "--n-ln", "12"])
        assert code == EXIT_OK
        assert out.strip().endswith("PASS")

    def test_corrupted_edge_fails(self):
        code, out = run(["oracle", "--config", CFG, "--n-return", "16",
                         "--n-period", "8", "--n-ln", "12",
                         "--corrupt-edge", "4:2"])
        assert code == EXIT_ORACLE_FAIL
        assert "FAIL" in out

    def test_corrupted_aux_edge_fails(self):
        # one auxiliary among several stepping into the body: a block fill
        # that overwrote the single corrupted entry would pass, and so would
        # a return walk that read one auxiliary's edges for all of them
        for edge in ("1_2:2", "1_3:2"):
            code, out = run(["oracle", "--config", CFG, "--L", "3", "--corrupt-edge", edge])
            assert code == EXIT_ORACLE_FAIL
            status = {" ".join(line.split()[:-5]): line.split()[-1] for line in out.splitlines()}
            assert status["entropy vs P(0)"] == "FAIL", edge
            assert "FAIL" in (status["returns_to_1 beta=0.25"], status["returns_to_1 beta=0.5"])

    def test_unread_wing_edge_fails_the_return_rows(self):
        # the return walk reads no edge from a wing into the 1-family or into
        # the other wing: each row whose words could take such an edge FAILs
        # with an infinite bound, and the [32] rows, which stay off the
        # 1-family, still read ok
        for argv, failing in ((["--L", "3", "--corrupt-edge", "3:1_2"], ("returns_to_1",)),
                              (["--L", "3", "--corrupt-edge", "4:1_1"], ("returns_to_1",)),
                              (["--variant", "B", "--corrupt-edge", "3:3'"],
                               ("returns_to_1", "returns_to_32"))):
            code, out = run(["oracle", "--config", CFG, *argv])
            assert code == EXIT_ORACLE_FAIL
            returns = {" ".join(line.split()[:-5]): line.split()[-2:]
                       for line in out.splitlines() if line.startswith("returns_to_")}
            assert len(returns) == 4
            for name, (bound, status) in returns.items():
                expect = ["inf", "FAIL"] if name.startswith(failing) else [bound, "ok"]
                assert [bound, status] == expect, (argv, name)

    def test_large_L_is_cheap(self):
        # the graph has one class for the auxiliaries, whatever L is: L = 2000
        # costs what L = 1 does, not the seconds an edge-by-edge build took
        t0 = time.perf_counter()
        code, out = run(["oracle", "--config", CFG, "--L", "2000"])
        elapsed = time.perf_counter() - t0
        assert code == EXIT_OK
        assert out.strip().endswith("PASS")
        assert elapsed < 3.0, f"oracle --L 2000 took {elapsed:.2f} s"

    def test_large_gamma_or_delta_passes(self):
        # the wing-word and periodic-orbit weights used to overflow here
        # (--delta 1500 and 3000: the return walk's too; lambda itself
        # underflows there, so some return rows read 0 against 0)
        for flags in (["--delta", "40"], ["--delta", "200"], ["--gamma", "800"],
                      ["--delta", "1500"], ["--delta", "3000"]):
            code, out = run(["oracle", "--config", CFG] + flags)
            assert code == EXIT_OK, flags
            assert out.strip().endswith("PASS")

    def test_malformed_corrupt_edge_exits_2(self, capsys):
        # a mistyped negative control must not pass for one that failed
        for edge in ("x:y", "4"):
            code, _ = run(["oracle", "--config", CFG, "--corrupt-edge", edge])
            assert code == EXIT_CONFIG
            assert "--corrupt-edge" in capsys.readouterr().err


class TestSweep:
    def test_delta_sweep_monotone(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _ = run(["sweep", "--config", CFG, "--param", "delta",
                       "--values", "1,2,5", "--out", str(out_path)])
        assert code == EXIT_OK
        rows = read_csv(out_path)
        eb = [float(r["eps_beta_hi"]) for r in rows]
        assert eb[0] > eb[1] > eb[2]
        assert all(float(r["zeta_eps_beta_lo"]) > 5.0 for r in rows)

    def test_L_sweep_monotone(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _ = run(["sweep", "--config", CFG, "--param", "L",
                       "--values", "1,20,50", "--out", str(out_path)])
        assert code == EXIT_OK
        rows = read_csv(out_path)
        eb = [float(r["eps_beta_hi"]) for r in rows]
        assert eb[0] < eb[1] < eb[2]

    def test_L_sweep_solves_beta_lo_once(self, tmp_path, transition_solves):
        # beta_lo reads only the wing parameters, which an L-scan keeps: one
        # bisection for it and one for each set's beta_hi
        code, _ = run(["sweep", "--config", CFG, "--param", "L",
                       "--values", "1,5,20,50,100,175,250", "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_OK
        assert transition_solves["bisect_log_offset"] == 1 + 7

    def test_empty_values_exits_2(self):
        code, _ = run(["sweep", "--config", CFG, "--param", "L", "--values", ""])
        assert code == EXIT_CONFIG

    def test_bad_values_exit_2_naming_the_value(self, capsys):
        # a bad entry late in the list still stops the sweep before any row
        for param, bad in (("delta", "abc"), ("delta", "1e400"), ("L", "0"), ("L", "2.5")):
            code, out = run(["sweep", "--config", CFG, "--param", param,
                             "--values", f"1,{bad}"])
            assert code == EXIT_CONFIG, bad
            assert out == ""
            assert repr(bad) in capsys.readouterr().err


class TestReferenceRunner:
    # the invocations that reproduce the transitions, the pressure curves, the
    # regime sweeps, the equilibrium counts and the oracle table
    CLAIMS = {"critical_A", "curves_A", "oracle_A", "sweep_delta", "sweep_L",
              "equilibria_L1", "equilibria_L250"}

    def test_every_invocation_parses(self):
        spec = importlib.util.spec_from_file_location("reference_outputs", REFERENCE_OUTPUTS)
        runner = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(runner)
        assert self.CLAIMS <= set(runner.INVOCATIONS)
        parser = make_parser()
        for name, argv in runner.INVOCATIONS.items():
            try:
                parser.parse_args([argv[0], "--config", runner.CFG, *argv[1:]])
            except SystemExit:
                pytest.fail(f"{name}: {argv} does not parse")
