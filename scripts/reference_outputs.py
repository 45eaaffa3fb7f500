#!/usr/bin/env python3
"""Record everything the reference CLI invocations produce.

    python scripts/reference_outputs.py OUTDIR

Each invocation runs through `butterflyshift.cli.main` in its own directory
OUTDIR/<name>/, which afterwards holds `stdout.txt`, `stderr.txt`,
`exit_code.txt` and any CSV or SVG the command wrote.  The package is
imported from this checkout's `src/`, so `diff -r` of the OUTDIRs written by
two checkouts compares their command-line behaviour byte for byte.
"""

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from butterflyshift.cli import main  # noqa: E402

CFG = os.path.join(HERE, "..", "configs", "reference.cfg")

B = ["--variant", "B"]
KNOWN_FAULT = ["--alpha", "3", "--gamma", "0.2", "--delta", "0.5", "--epsilon", "3.5",
               "--L", "2"]
NEAR_BETA_C = ["--beta-start", "1.99", "--beta-stop", "2", "--beta-step", "0.005"]
# the known-fault set with eps from the two ends of a bisection of eps over
# [1, 3.5] (the reference and the known-fault eps) for beta_hi = 0.6:
# beta_hi = 0.6 + 2.2e-10 and 0.6 - 8.8e-11, one on each side of the
# oracle table's probe-beta switch
NEAR_SWITCH = ["--alpha", "3", "--gamma", "0.2", "--delta", "0.5", "--L", "2"]
# a log-uniform draw where P(beta) lies within an ulp of the composition
# boundary from beta ~ 1.55 up to its beta_lo ~ 1.8154
NEAR_BOUNDARY = ["--alpha", "213.16", "--gamma", "0.02266", "--delta", "0.005589",
                 "--epsilon", "0.6001", "--L", "321", *B]

# name -> argv without --config; --out paths are relative to the invocation's
# directory, so no absolute path reaches the recorded output
INVOCATIONS = {
    "critical_A": ["critical", "--out", "critical.csv"],
    "critical_B": ["critical", *B, "--out", "critical.csv"],
    "curves_A": ["curves", "--out", "curves.csv", "--svg"],
    "curves_B": ["curves", *B, "--out", "curves.csv", "--svg"],
    "sweep_delta": ["sweep", "--param", "delta", "--values", "1,2,5,10,20",
                    "--out", "sweep.csv"],
    "sweep_L": ["sweep", "--param", "L", "--values", "1,5,20,50,100,175,250",
                "--out", "sweep.csv"],
    "equilibria_L1": ["equilibria", "--L", "1", "--out", "equilibria.csv"],
    "equilibria_L250": ["equilibria", "--L", "250", "--out", "equilibria.csv"],
    "equilibria_B": ["equilibria", *B, "--out", "equilibria.csv"],
    "equilibria_beta_star": ["equilibria", "--beta-star", "2.5"],
    "equilibria_B_beta_star": ["equilibria", *B, "--beta-star", "0.3"],
    "oracle_A": ["oracle"],
    "oracle_B": ["oracle", *B],
    "oracle_L4": ["oracle", "--L", "4"],
    "oracle_L299": ["oracle", "--L", "299"],
    "oracle_corrupt_edge": ["oracle", "--corrupt-edge", "4:2"],
    "oracle_B_corrupt_edge": ["oracle", *B, "--corrupt-edge", "4:2"],
    # edges the return walk does not read: the rows it certifies FAIL
    "oracle_L3_corrupt_wing_to_aux": ["oracle", "--L", "3", "--corrupt-edge", "3:1_2"],
    "oracle_B_corrupt_wing_to_wing": ["oracle", *B, "--corrupt-edge", "3:3'"],
    # every horizon at its cap: the return walks at N = 30
    "oracle_max_horizons": ["oracle", "--n-return", "30", "--n-period", "14", "--n-ln", "20"],
    "oracle_delta1500": ["oracle", "--delta", "1500"],
    "oracle_known_fault": ["oracle", *KNOWN_FAULT],
    "oracle_beta_hi_above_0.6": ["oracle", *NEAR_SWITCH, "--epsilon", "1.77902036"],
    "oracle_beta_hi_below_0.6": ["oracle", *NEAR_SWITCH, "--epsilon", "1.779020361"],
    # lambda_32 near 1e-305: the rows where the gap slack is relative
    "oracle_delta1400": ["oracle", "--delta", "1400"],
    "oracle_delta200": ["oracle", "--delta", "200"],
    "oracle_delta3000": ["oracle", "--delta", "3000"],
    "oracle_gamma800": ["oracle", "--gamma", "800"],
    "oracle_B_L7": ["oracle", *B, "--L", "7"],
    "oracle_L1000": ["oracle", "--L", "1000"],
    "curves_B_L250": ["curves", *B, "--L", "250", "--alpha", "0.1"],
    "curves_alpha3_L20": ["curves", "--alpha", "3", "--gamma", "0.2", "--delta", "0.5",
                          "--epsilon", "3.5", "--L", "20"],
    "sweep_epsilon": ["sweep", "--param", "epsilon", "--values", "0.5,1,2,3,5,10"],
    "sweep_alpha": ["sweep", "--param", "alpha", "--values", "0.1,0.5,2,5"],
    # just below beta_c: the integer branches n = 1, 2, 3 of the polylog expansion
    "curves_L170_below_beta_c": ["curves", "--L", "170", *NEAR_BETA_C],
    "curves_L170_eps1.5_below_beta_c": ["curves", "--L", "170", "--epsilon", "1.5",
                                        *NEAR_BETA_C],
    # just below beta_lo, where P sits just above the composition boundary
    "curves_below_beta_lo": ["curves", "--beta-start", "1.00645", "--beta-stop", "1.0065173",
                             "--beta-step", "0.0000025", "--out", "curves.csv"],
    "curves_near_boundary_below_beta_lo": ["curves", *NEAR_BOUNDARY, "--beta-start", "1.5",
                                           "--beta-stop", "1.815", "--beta-step", "0.005",
                                           "--out", "curves.csv"],
}


def record(outdir: str, name: str, argv: list[str]) -> int:
    """Run one invocation inside OUTDIR/name and write its streams and exit code."""
    rundir = os.path.join(outdir, name)
    os.makedirs(rundir, exist_ok=True)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(rundir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main([argv[0], "--config", CFG, *argv[1:]])
            except SystemExit as exc:  # argparse rejects a flag or a value
                code = exc.code
    finally:
        os.chdir(cwd)
    for fname, text in (("stdout.txt", out.getvalue()), ("stderr.txt", err.getvalue()),
                        ("exit_code.txt", f"{code}\n")):
        with open(os.path.join(rundir, fname), "w", encoding="utf-8") as fh:
            fh.write(text)
    return code


def run(outdir: str) -> int:
    for name, argv in INVOCATIONS.items():
        code = record(outdir, name, argv)
        print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    sys.exit(run(os.path.abspath(sys.argv[1])))
