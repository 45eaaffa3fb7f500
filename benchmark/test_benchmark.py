"""Tests of the benchmark itself.

    python3 -m pytest benchmark/test_benchmark.py -q

Each correctness check must pass the program's real output and reject the
same output with one corruption; a traced run must repeat its counts exactly;
and the benchmark must refuse to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

cli, critical = bench.load_package()


def _run_items(workload, items):
    runner = bench.Runner(workload, cli, critical)
    for item in items:
        runner.run(item)
    return runner.results


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("work"))


@pytest.fixture(scope="module")
def curve(workdir):
    w = workloads.Curves(bench.ROOT, 3, workdir)
    item = w._item(dict(workloads.REFERENCE), "refA", points=31)
    [(item, outcome, rows)] = _run_items(w, [item])
    return w, item, outcome, rows


@pytest.fixture(scope="module")
def sweep(workdir):
    w = workloads.Sweep(bench.ROOT, 3, workdir)
    return w, _run_items(w, [w._item(dict(workloads.REFERENCE, L=20), "L")])[0]


@pytest.fixture(scope="module")
def oracle_table(workdir):
    w = workloads.Oracle(bench.ROOT, 3, workdir)
    [(item, outcome, text)] = _run_items(w, [w._item(dict(workloads.REFERENCE), "reference")])
    return w, item, outcome, text


def test_curve_check_passes_real_output(curve):
    w, item, outcome, rows = curve
    assert {r["regime"] for r in rows} == {"below_lo", "between", "above_hi"}
    assert w.check(item, outcome, rows) == []


@pytest.mark.parametrize("sign", [1, -1])
def test_curve_check_rejects_shifted_p_full(curve, sign):
    w, item, outcome, rows = curve
    b_lo = item.extra["transitions"][0]
    # a probed point below beta_lo where P_full stands clear of P_mid, so that
    # only the mpmath bracket can see the shift
    i = next(i for i in item.extra["probes"]
             if float(rows[i]["beta"]) < b_lo
             and float(rows[i]["p_full"]) > float(rows[i]["p_mid"]) * (1 + 1e-6))
    bad = [dict(r) for r in rows]
    bad[i]["p_full"] = repr(float(rows[i]["p_full"]) * (1 + sign * 1e-9))
    problems = w.check(item, outcome, bad)
    assert problems and all("lambda_1" in p for p in problems)


def test_sweep_check_passes_real_output(sweep):
    w, (item, outcome, rows) = sweep
    assert w.check(item, outcome, rows) == []


@pytest.mark.parametrize("sign", [1, -1])
def test_sweep_check_rejects_shifted_beta_lo(sweep, sign):
    w, (item, outcome, (sweep_rows, eq_rows)) = sweep
    bad = [dict(sweep_rows[0])]
    bad[0]["beta_lo"] = repr(float(bad[0]["beta_lo"]) * (1 + sign * 1e-9))
    problems = w.check(item, outcome, (bad, eq_rows))
    assert any("keeps its sign across beta_lo" in p for p in problems)


def test_oracle_check_passes_real_table(oracle_table):
    w, item, outcome, text = oracle_table
    assert outcome.outputs[0] == [0]
    assert w.check(item, outcome, text) == []


def test_oracle_check_rejects_one_failed_row(oracle_table):
    w, item, outcome, text = oracle_table
    lines = text.splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("returns_to_32"))
    lines[i] = lines[i][: -len("ok")] + "FAIL"
    assert checks.check_oracle(item.params, "\n".join(lines), 0, "reference")


def test_oracle_check_rejects_passing_negative_control(oracle_table):
    _, item, _, text = oracle_table
    problems = checks.check_oracle(item.params, text, 0, "negative")
    assert any("exited 0" in p for p in problems)
    assert any("passes" in p for p in problems)


def _traced(seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "sweep",
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, cwd=bench.ROOT, check=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_exactly():
    first, second = _traced(11), _traced(11)
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts and counts == {k: second["metrics"][k]["value"] for k in counts}
    assert counts["series.tail_sum.zeta.calls_per_item"] > 0
    assert first["correct"] and (first["attempted"], first["failed"]) == (
        second["attempted"], second["failed"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "curves", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
