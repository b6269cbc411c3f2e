"""Command-line front end: coefficients, Green functions, verification.

Exit codes: 0 success, 1 failing verification check, 2 configuration or
argument parse failure, 3 numerical failure.  Output is CSV by default
(JSON lines with --format jsonl), complex values always split into
Re/Im columns, rows in deterministic grid order, no timestamps.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys

from . import born as born_mod
from . import green as green_mod
from . import sl3, transfer, verify
from .errors import ConfigError, DenominatorZero, Gf1dError, WronskianZero
from .potential import PotentialSpec, check_wavenumber, load_potential

__all__ = ["main"]


def _parse_k(text):
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise ConfigError("--k", f"expected re or re,im, got {text!r}")
    try:
        k = complex(*map(float, parts))
    except ValueError as exc:
        raise ConfigError("--k", str(exc)) from exc
    return check_wavenumber(k)


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("--grid", f"expected start:stop:n, got {text!r}")
    try:
        start, stop, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError("--grid", str(exc)) from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError("--grid", f"start and stop must be finite, got {text!r}")
    if n < 1 or (n > 1 and not stop > start):
        raise ConfigError("--grid", "grid must be strictly increasing with n >= 1")
    if n == 1:
        return [start]
    step = (stop - start) / (n - 1)
    return [start + i * step for i in range(n)]


def _load_spec(path):
    if path is None:
        return PotentialSpec()
    return load_potential(path)


def _row_writer(stream, fmt, header):
    """A function that writes one row, as CSV after a header or as a JSON line."""
    if fmt == "csv":
        w = csv.writer(stream, lineterminator="\n")
        w.writerow(header)
        return w.writerow
    return lambda row: stream.write(json.dumps(dict(zip(header, row))) + "\n")


@contextlib.contextmanager
def _output(args):
    """The --out file, closed after, or stdout, where a reader that closes
    the pipe early (``| head``) ends the output quietly."""
    if args.out not in (None, "-"):
        with open(args.out, "w", newline="") as stream:
            yield stream
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:  # the flush at interpreter exit would fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_coefficients(args):
    spec = _load_spec(args.potential)
    ks = [_parse_k(t) for t in args.k] or [1.0 + 0j]
    grid = _parse_grid(args.grid) if args.grid else None
    intervals = []
    for t in args.interval:
        a, _, b = t.partition(":")
        try:
            intervals.append((float(a), float(b)))
        except ValueError as exc:
            raise ConfigError("--interval", str(exc)) from exc
    if grid:
        intervals.extend((grid[0], x) for x in grid[1:])
    if not intervals:
        x_l, x_r = spec.support
        intervals = [(x_l, x_r)]
    header = [
        "x1", "x2", "k_re", "k_im",
        "tau_re", "tau_im", "r_right_re", "r_right_im",
        "r_left_re", "r_left_im",
    ]
    with _output(args) as stream:
        write = _row_writer(stream, args.format, header)
        for k in ks:
            sweep = transfer.Sweep(spec, k, args.method, args.step)
            for x1, x2 in intervals:
                t = sweep.triple(x1, x2)
                write(
                    [
                        x1, x2, k.real, k.imag,
                        t.tau.real, t.tau.imag,
                        t.r_right.real, t.r_right.imag,
                        t.r_left.real, t.r_left.imag,
                    ]
                )
    return 0


def _born(sweep, x, y, args):
    if args.method != "exact_piecewise":
        raise ConfigError("--method", "route born samples f directly; it has no rk4")
    return born_mod.born_series(sweep.spec, x, y, sweep.k, max_order=args.order)[0]


# route name -> (sweep, x, y, args) -> GreenValue; every pair at one k reads
# the same sweep.  Functions are looked up at call time so that rebinding a
# module attribute reaches the CLI.
_ROUTES = {
    "A": lambda sweep, x, y, args: sl3.wronskian_from(sweep, x, y),
    "B": lambda sweep, x, y, args: green_mod.closed_form_from(sweep, x, y),
    "C": lambda sweep, x, y, args: green_mod.polyrep_from(sweep, x, y, P=args.P),
    "C-asym": lambda sweep, x, y, args: green_mod.polyrep_from(
        sweep, x, y, P=args.P, variant="asymmetric"
    ),
    "born": _born,
}


def _green_row(sweep, x, y, args):
    """The columns after x and y of one green row: the route's 2ikG, or a
    pole row where k sits on a bound-state pole."""
    k = sweep.k
    try:
        gv = _ROUTES[args.route](sweep, x, y, args)
    except (DenominatorZero, WronskianZero):
        return [k.real, k.imag, "", "", "pole", ""] + ([""] if args.check else [])
    val = 2j * k * gv.value
    row = [k.real, k.imag, val.real, val.imag, gv.route, gv.truncation_loss]
    if args.check:
        try:
            gb = green_mod.closed_form_from(sweep, x, y)
            row.append(abs(val - 2j * k * gb.value))
        except DenominatorZero:
            row.append("")
    return row


def cmd_green(args):
    if args.route not in _ROUTES:
        raise ConfigError("--route", f"must be one of {sorted(_ROUTES)}")
    spec = _load_spec(args.potential)
    ks = [_parse_k(t) for t in args.k] or [1.0 + 0j]
    grid = _parse_grid(args.grid) if args.grid else [0.0]
    header = [
        "x", "y", "k_re", "k_im",
        "two_ik_g_re", "two_ik_g_im", "route", "truncation_loss",
    ]
    if args.check:
        header.append("abs_diff_route_b")
    with _output(args) as stream:
        write = _row_writer(stream, args.format, header)
        for k in ks:
            sweep = transfer.Sweep(spec, k, args.method, args.step)
            # every route orders (x, y) before it computes, so G(x, y) and
            # G(y, x) are the same bits: a row below the diagonal reuses
            # the one above it, each computed when grid order first meets it
            mirrored = {}
            for i, x in enumerate(grid):
                for j, y in enumerate(grid):
                    if j < i:
                        row = mirrored.pop((j, i))
                    else:
                        row = _green_row(sweep, x, y, args)
                        if j > i:
                            mirrored[i, j] = row
                    write([x, y, *row])
    return 0


def cmd_verify(args):
    reports = verify.run_suite(
        seed=args.seed, P=args.P, corrupt=args.inject_corruption
    )
    with _output(args) as stream:
        for r in reports:
            line = json.dumps(r.to_dict()) if args.format == "jsonl" else r.line()
            stream.write(line + "\n")
    return 0 if all(r.status == "pass" for r in reports) else 1


@functools.cache
def build_parser():
    """The argument parser, built once; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="gf1d",
        description="Green functions of the 1D stationary Schrodinger equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--potential", help="YAML/JSON potential file")
        p.add_argument("--k", action="append", default=[], metavar="RE[,IM]")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    def propagation(p):
        p.add_argument("--method", choices=("exact_piecewise", "rk4"),
                       default="exact_piecewise")
        p.add_argument("--step", type=float, default=1e-3)

    p = sub.add_parser("coefficients", help="transmission/reflection of intervals")
    common(p)
    p.add_argument("--grid", metavar="START:STOP:N")
    p.add_argument("--interval", action="append", default=[], metavar="X1:X2")
    propagation(p)
    p.set_defaults(func=cmd_coefficients)

    p = sub.add_parser("green", help="Green function on a grid")
    common(p)
    p.add_argument("--grid", metavar="START:STOP:N")
    p.add_argument("--route", default="B")
    p.add_argument("--P", type=int, default=64, help="series cutoff")
    p.add_argument("--order", type=int, default=2,
                   help="multiple-scattering order of route born, any n >= 0")
    p.add_argument("--check", action="store_true",
                   help="add a column with |route - closed form|")
    propagation(p)
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("verify", help="run the identity verification suite")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--P", type=int, default=48)
    p.add_argument("--inject-corruption", action="store_true",
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; normalize other codes
        raise SystemExit(2 if exc.code else 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Gf1dError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
