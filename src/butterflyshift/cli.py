"""Command-line front end: critical / curves / equilibria / oracle / sweep.

Configuration is a flat key=value text file overridden by command-line flags
(flag wins); each command takes the flags of only the settings it reads.  All CSV output carries a header row and 15-significant-digit
floats; runs are deterministic.  Exit status: 0 success, 1 oracle FAIL,
2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import os
import sys
from dataclasses import dataclass, replace

from . import critical, oracle
from .model import REFERENCE, ModelParams, build_graph
from .svgchart import write_line_chart

EXIT_OK = 0
EXIT_ORACLE_FAIL = 1
EXIT_CONFIG = 2

MAX_GRID_POINTS = 10**6  # a larger beta grid is a mistyped range, not a run


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    beta_start: float = 0.0
    beta_stop: float = 1.2
    beta_step: float = 0.01
    n_return: int = 22
    n_period: int = 12
    n_ln: int = 20
    out: str | None = None
    svg: bool = False

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.beta_start, self.beta_stop, self.beta_step))):
            raise ConfigError("beta_start, beta_stop and beta_step must be finite")
        if self.beta_start < 0:
            raise ConfigError("beta_start must be >= 0")
        if self.beta_stop < self.beta_start:
            raise ConfigError("beta_stop must be >= beta_start")
        if self.beta_step <= 0:
            raise ConfigError("beta_step must be > 0")
        if (self.beta_stop - self.beta_start) / self.beta_step >= MAX_GRID_POINTS:
            raise ConfigError(f"the beta grid must hold at most {MAX_GRID_POINTS} points")
        # a grid point round(start + k*step, 12) lies within 1e-12 / 2 plus
        # two roundings of 2^-53 * beta_stop of its exact value, so a larger
        # step keeps every point apart; a smaller one may repeat points, and
        # one below the spacing of doubles never reaches beta_stop
        if self.beta_step <= 1e-12 + 2.0 ** -50 * self.beta_stop:
            raise ConfigError("beta_step is below the grid's resolution: 1e-12, "
                              "and the spacing of doubles near beta_stop")
        if not (1 <= self.n_return <= oracle.RAW_HORIZON_CAP):
            raise ConfigError(f"n_return must be in 1..{oracle.RAW_HORIZON_CAP}")
        if not (3 <= self.n_period <= oracle.PERIOD_CAP):
            raise ConfigError(f"n_period must be in 3..{oracle.PERIOD_CAP}")
        if not (2 <= self.n_ln <= oracle.LN_CAP):
            raise ConfigError(f"n_ln must be in 2..{oracle.LN_CAP}")


_PARAM_KEYS = {"variant": str, "alpha": float, "gamma": float, "delta": float,
               "epsilon": float, "L": int}
_CONFIG_KEYS = {"beta_start": float, "beta_stop": float, "beta_step": float,
                "n_return": int, "n_period": int, "n_ln": int, "out": str, "svg": bool}
_KEYS = {**_PARAM_KEYS, **_CONFIG_KEYS}
#: the settings each command reads besides the model parameters; a config file
#: may hold every key, since one file serves all commands
_COMMAND_KEYS = {
    "critical": ("out",),
    "curves": ("beta_start", "beta_stop", "beta_step", "out", "svg"),
    "equilibria": ("out",),
    "oracle": ("n_return", "n_period", "n_ln"),
    "sweep": ("out",),
}
_SWEEPABLE = [key for key, typ in _PARAM_KEYS.items() if typ is not str]
_HELP = {"out": "output CSV path (default: stdout)",
         "svg": "also write an SVG chart next to the CSV"}


def _parse_bool(v: str) -> bool:
    if v.lower() in ("1", "true", "yes", "on"):
        return True
    if v.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {v!r}")


def read_config_file(path: str) -> dict:
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        typ = _KEYS.get(key)
        if typ is None:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _parse_bool(val) if typ is bool else typ(val)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    values = read_config_file(args.config) if args.config else {}
    values.update((k, v) for k, v in vars(args).items() if k in _KEYS and v is not None)
    try:
        params = replace(REFERENCE, **{k: values[k] for k in _PARAM_KEYS if k in values})
        return RunConfig(params=params,
                         **{k: values[k] for k in _CONFIG_KEYS if k in values})
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def _open_out(path: str | None):
    """The --out file, opened before any computation so that an unwritable
    path fails at once; without a path, a context that yields None."""
    try:
        return open(path, "w", newline="", encoding="utf-8") if path else contextlib.nullcontext()
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_csv(fh, header: list[str], rows: list[list]) -> None:
    """The CSV into the open file `fh`, or to stdout when `fh` is None."""
    fh = fh or sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)
        fh.flush()
    except OSError as exc:
        raise ConfigError(f"cannot write {getattr(fh, 'name', 'stdout')}: {exc}") from exc


def _beta_grid(cfg: RunConfig) -> list[float]:
    grid = []
    k = 0
    while True:
        b = cfg.beta_start + k * cfg.beta_step
        if b > cfg.beta_stop + 1e-12:
            break
        grid.append(round(b, 12))
        k += 1
    return grid


# ---------------------------------------------------------------------------
# subcommands

def cmd_critical(cfg: RunConfig, out) -> int:
    crit = critical.critical_set(cfg.params)
    eb_lo = cfg.params.epsilon * crit.beta_lo
    eb_hi = cfg.params.epsilon * crit.beta_hi
    zeta_lo = critical.zeta_at_beta_lo(cfg.params)
    lo_name, hi_name = ("beta_1", "beta_c") if cfg.params.variant == "A" else ("beta_2", "beta_c_prime")
    print(f"{lo_name} = {_fmt(crit.beta_lo)}   (residual {_fmt(crit.residual_lo)})")
    print(f"{hi_name} = {_fmt(crit.beta_hi)}   (residual {_fmt(crit.residual_hi)})")
    print(f"eps*{lo_name} = {_fmt(eb_lo)}")
    print(f"eps*{hi_name} = {_fmt(eb_hi)}")
    print(f"zeta(eps*{lo_name}) = {_fmt(zeta_lo)}")
    if out:
        _write_csv(out,
                   ["beta_lo", "beta_hi", "residual_lo", "residual_hi",
                    "eps_beta_lo", "eps_beta_hi", "zeta_eps_beta_lo"],
                   [[crit.beta_lo, crit.beta_hi, crit.residual_lo, crit.residual_hi,
                     eb_lo, eb_hi, zeta_lo]])
    return EXIT_OK


def cmd_curves(cfg: RunConfig, out) -> int:
    grid = _beta_grid(cfg)
    samples = critical.pressure_curve(cfg.params, grid)
    rows = [[s.beta, s.p34, s.p_mid, s.p_full, s.ztilde, s.regime] for s in samples]
    _write_csv(out, ["beta", "p34", "p_mid", "p_full", "ztilde", "regime"], rows)
    if cfg.svg:
        crit = critical.critical_set(cfg.params)
        svg_path = (os.path.splitext(cfg.out)[0] + ".svg") if cfg.out else "curves.svg"
        try:
            write_line_chart(
                svg_path,
                f"pressure curves (variant {cfg.params.variant})",
                "beta", "pressure",
                [("P_full", grid, [s.p_full for s in samples]),
                 ("P_mid", grid, [s.p_mid for s in samples]),
                 ("P_34", grid, [s.p34 for s in samples])],
                vlines=[(crit.beta_lo, "beta_lo"), (crit.beta_hi, "beta_hi")],
            )
        except OSError as exc:
            raise ConfigError(f"cannot write {svg_path}: {exc}") from exc
        print(f"wrote {svg_path}", file=sys.stderr)
    return EXIT_OK


def cmd_equilibria(cfg: RunConfig, out, beta_star: float | None) -> int:
    rows = []
    for which in ("at_beta_lo", "at_beta_hi"):
        rep = critical.equilibrium_report(cfg.params, which, beta_star=beta_star)
        cyl = "[32]" if which == "at_beta_lo" else "[1]"
        rel = ">" if rep.return_time_derivative_finite else "<="
        verdict = (f"eps*beta {rel} 2: "
                   + (f"at least {rep.count_lower_bound} equilibrium states; "
                      if rep.count_lower_bound > 1 else "unique equilibrium state; ")
                   + (f"weight on {cyl}" if rep.weight_on_cylinder
                      else f"no equilibrium state gives weight to {cyl}"))
        print(f"{which}: beta* = {_fmt(rep.beta_star)}  eps*beta = {_fmt(rep.eps_beta)}")
        print(f"  return-time derivative finite: {rep.return_time_derivative_finite}")
        print(f"  {verdict}")
        rows.append([which, rep.beta_star, rep.eps_beta,
                     rep.return_time_derivative_finite, rep.count_lower_bound,
                     rep.weight_on_cylinder])
    if cfg.params.variant == "B":
        print("above beta_c': two equilibrium states (one per wing); pressure analytic")
    if out:
        _write_csv(out,
                   ["which", "beta_star", "eps_beta", "return_time_derivative_finite",
                    "count_lower_bound", "weight_on_cylinder"], rows)
    return EXIT_OK


def cmd_oracle(cfg: RunConfig, corrupt_edge: str | None) -> int:
    extra = []
    if corrupt_edge:
        a, _, b = corrupt_edge.partition(":")
        extra.append((a.strip(), b.strip()))
    try:
        graph = build_graph(cfg.params, extra_edges=extra)
    except ValueError as exc:
        raise ConfigError(f"bad --corrupt-edge {corrupt_edge!r}: {exc}") from exc
    print(f"{'check':<28} {'analytic':>22} {'oracle':>22} {'gap':>12} {'bound':>12}  status")
    rows = oracle.verification_table(cfg.params, graph, cfg.n_return, cfg.n_period, cfg.n_ln)
    ln_ok = all(r.ok for r in rows if r.name.startswith("L_n"))
    print(f"L_n closed form n=2..{cfg.n_ln}: "
          + (f"all exact (<={oracle.LN_RTOL:g} relative)" if ln_ok else "MISMATCH"))
    for r in rows:
        if not r.name.startswith("L_n"):
            print(f"{r.name:<28} {_fmt(r.analytic):>22} {_fmt(r.oracle):>22} "
                  f"{r.gap:>12.3e} {r.bound:>12.3e}  {'ok' if r.ok else 'FAIL'}")
    failures = [r.name for r in rows if not r.ok]
    if failures:
        print(f"FAIL ({len(failures)} checks): " + ", ".join(failures))
        return EXIT_ORACLE_FAIL
    print("PASS")
    return EXIT_OK


def _swept_params(base: ModelParams, param_name: str, text: str) -> ModelParams:
    """`base` with one parameter set from a --values entry; L must be an integer."""
    try:
        v = float(text)
        if param_name == "L":
            if not v.is_integer():
                raise ValueError("not an integer")
            v = int(v)
        return replace(base, **{param_name: v})
    except ValueError as exc:
        raise ConfigError(f"bad --values entry {text!r} for {param_name}: {exc}") from exc


def cmd_sweep(out, param_name: str, sets: list[ModelParams]) -> int:
    def one(p):
        crit = critical.critical_set(p)
        return [getattr(p, param_name), crit.beta_lo, crit.beta_hi,
                p.epsilon * crit.beta_lo, p.epsilon * crit.beta_hi,
                critical.zeta_at_beta_lo(p)]

    rows = [one(p) for p in sets]
    _write_csv(out, ["value", "beta_lo", "beta_hi", "eps_beta_lo",
                     "eps_beta_hi", "zeta_eps_beta_lo"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, command: str) -> None:
    """--config, the model flags and the flags of the settings `command` reads."""
    p.add_argument("--config", help="flat key=value config file")
    for key in (*_PARAM_KEYS, *_COMMAND_KEYS[command]):
        typ = _KEYS[key]
        kind = ({"action": "store_const", "const": True, "default": None} if typ is bool
                else {"type": typ, "choices": ("A", "B") if key == "variant" else None})
        p.add_argument("--" + key.replace("_", "-"), dest=key, help=_HELP.get(key), **kind)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="butterflyshift",
        description="Pressure functions and phase transitions of two butterfly "
                    "subshifts, with brute-force verification oracles.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("critical", help="transition parameters beta_lo < beta_hi")
    _add_common(p, "critical")
    p = sub.add_parser("curves", help="CSV of P34 / P_mid / P_full over a beta grid")
    _add_common(p, "curves")
    p = sub.add_parser("equilibria", help="equilibrium count and cylinder-weight verdicts")
    _add_common(p, "equilibria")
    p.add_argument("--beta-star", dest="beta_star", type=float,
                   help="evaluate the criterion at this beta instead of the transitions")
    p = sub.add_parser("oracle", help="run the brute-force verification table")
    _add_common(p, "oracle")
    p.add_argument("--corrupt-edge", dest="corrupt_edge",
                   help="test hook: add edge FROM:TO to the graph (negative control)")
    p = sub.add_parser("sweep", help="sweep one parameter, reporting the criticals")
    _add_common(p, "sweep")
    p.add_argument("--param", required=True, choices=_SWEEPABLE)
    p.add_argument("--values", required=True,
                   help="comma-separated parameter values")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_run_config(args)
        if args.command == "oracle":
            return cmd_oracle(cfg, args.corrupt_edge)
        if args.command == "sweep":
            values = [v for v in args.values.split(",") if v.strip()]
            if not values:
                raise ConfigError("--values is empty")
            sets = [_swept_params(cfg.params, args.param, v) for v in values]
        beta_star = getattr(args, "beta_star", None)
        if beta_star is not None and not 0.0 <= beta_star < math.inf:
            raise ConfigError(
                f"bad --beta-star: beta_star must be finite and >= 0, got {beta_star!r}")
        with _open_out(cfg.out) as out:
            if args.command == "critical":
                return cmd_critical(cfg, out)
            if args.command == "curves":
                return cmd_curves(cfg, out)
            if args.command == "equilibria":
                return cmd_equilibria(cfg, out, beta_star)
            return cmd_sweep(out, args.param, sets)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
