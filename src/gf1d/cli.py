"""Command-line front end: coefficients, Green functions, verification.

Exit codes: 0 success, 1 failing verification check, 2 configuration or
argument parse failure, 3 numerical failure.  Output is CSV by default
(JSON lines with --format jsonl), complex values always split into
Re/Im columns, rows in deterministic grid order, no timestamps.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import born as born_mod
from . import green as green_mod
from . import sl3, transfer, verify
from .errors import ConfigError, Gf1dError
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
    if n < 1 or (n > 1 and not stop > start):
        raise ConfigError("--grid", "grid must be finite and strictly increasing")
    if n == 1:
        return [start]
    step = (stop - start) / (n - 1)
    return [start + i * step for i in range(n)]


def _load_spec(path):
    if path is None:
        return PotentialSpec()
    return load_potential(path)


class _Writer:
    def __init__(self, stream, fmt, header):
        self.fmt = fmt
        self.stream = stream
        self.header = header
        if fmt == "csv":
            self.csv = csv.writer(stream, lineterminator="\n")
            self.csv.writerow(header)

    def row(self, values):
        if self.fmt == "csv":
            self.csv.writerow(values)
        else:
            self.stream.write(
                json.dumps(dict(zip(self.header, values)), allow_nan=True) + "\n"
            )


def _open_out(args):
    if args.out in (None, "-"):
        return sys.stdout, False
    return open(args.out, "w", newline=""), True


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
    stream, close = _open_out(args)
    try:
        w = _Writer(stream, args.format, header)
        for k in ks:
            for x1, x2 in intervals:
                t = transfer.interval_triple(
                    spec, x1, x2, k, method=args.method, step=args.step
                )
                w.row(
                    [
                        x1, x2, k.real, k.imag,
                        t.tau.real, t.tau.imag,
                        t.r_right.real, t.r_right.imag,
                        t.r_left.real, t.r_left.imag,
                    ]
                )
    finally:
        if close:
            stream.close()
    return 0


# route name -> (spec, x, y, k, args) -> GreenValue; functions are looked up
# at call time so that rebinding a module attribute reaches the CLI
_ROUTES = {
    "A": lambda spec, x, y, k, args: sl3.green_wronskian(spec, x, y, k),
    "B": lambda spec, x, y, k, args: green_mod.green_closed_form(spec, x, y, k),
    "C": lambda spec, x, y, k, args: green_mod.green_polyrep(
        spec, x, y, k, P=args.P
    ),
    "C-asym": lambda spec, x, y, k, args: green_mod.green_polyrep(
        spec, x, y, k, P=args.P, variant="asymmetric"
    ),
    "born": lambda spec, x, y, k, args: born_mod.born_series(
        spec, x, y, k, max_order=args.order
    )[0],
}


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
    stream, close = _open_out(args)
    try:
        w = _Writer(stream, args.format, header)
        for k in ks:
            for x in grid:
                for y in grid:
                    try:
                        gv = _ROUTES[args.route](spec, x, y, k, args)
                    except green_mod.DenominatorZero:
                        row = [x, y, k.real, k.imag, "", "", "pole", ""]
                        if args.check:
                            row.append("")
                        w.row(row)
                        continue
                    val = 2j * k * gv.value
                    row = [
                        x, y, k.real, k.imag,
                        val.real, val.imag, gv.route, gv.truncation_loss,
                    ]
                    if args.check:
                        gb = green_mod.green_closed_form(spec, x, y, k)
                        row.append(abs(val - 2j * k * gb.value))
                    w.row(row)
    finally:
        if close:
            stream.close()
    return 0


def cmd_verify(args):
    reports = verify.run_suite(
        seed=args.seed, P=args.P, corrupt=args.inject_corruption
    )
    stream, close = _open_out(args)
    try:
        if args.format == "jsonl":
            for r in reports:
                stream.write(json.dumps(r.to_dict()) + "\n")
        else:
            for r in reports:
                stream.write(r.line() + "\n")
    finally:
        if close:
            stream.close()
    return 0 if all(r.status == "pass" for r in reports) else 1


def build_parser():
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

    p = sub.add_parser("coefficients", help="transmission/reflection of intervals")
    common(p)
    p.add_argument("--grid", metavar="START:STOP:N")
    p.add_argument("--interval", action="append", default=[], metavar="X1:X2")
    p.add_argument("--method", choices=("exact_piecewise", "rk4"),
                   default="exact_piecewise")
    p.add_argument("--step", type=float, default=1e-3)
    p.set_defaults(func=cmd_coefficients)

    p = sub.add_parser("green", help="Green function on a grid")
    common(p)
    p.add_argument("--grid", metavar="START:STOP:N")
    p.add_argument("--route", default="B")
    p.add_argument("--P", type=int, default=64, help="series cutoff")
    p.add_argument("--order", type=int, default=2, help="multiple-scattering order")
    p.add_argument("--check", action="store_true",
                   help="add a column with |route - closed form|")
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
