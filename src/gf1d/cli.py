"""Command-line front end: coefficients, Green functions, verification.

Exit codes: 0 success, 1 failing verification check, 2 configuration or
argument parse failure, 3 numerical failure.  Output is CSV by default
(JSON lines with --format jsonl), complex values always split into
Re/Im columns, rows in deterministic grid order, no timestamps.
"""

from __future__ import annotations

import argparse
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


def _parse_interval(text):
    a, _, b = text.partition(":")
    try:
        x1, x2 = float(a), float(b)
    except ValueError as exc:
        raise ConfigError("--interval", str(exc)) from exc
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ConfigError("--interval", f"endpoints must be finite, got {text!r}")
    return x1, x2


def _load_spec(path):
    if path is None:
        return PotentialSpec()
    return load_potential(path)


class _Rows:
    """The text of output rows: CSV after a header, or JSON lines.

    A row is ``start`` + its cells joined by ``sep`` + ``end``.  ``cells``
    formats values as consecutive columns once, so a caller that repeats a
    value across rows (a grid point, a k, a mirrored pair) reuses the text.
    The bytes are those of ``csv.writer(lineterminator="\\n").writerow``,
    which writes ``str`` of each value (no cell here holds a comma, quote or
    newline), and of ``json.dumps`` of the row as a dict.
    """

    def __init__(self, fmt, header):
        csv = fmt == "csv"
        self.header = ",".join(header) + "\n" if csv else ""
        self.start, self.sep, self.end = ("", ",", "\n") if csv else ("{", ", ", "}\n")
        self._keys = None if csv else [json.dumps(h) + ": " for h in header]

    def cells(self, col, values):
        """The values as the columns from ``col`` on, joined by ``sep``."""
        if self._keys is None:
            return ",".join(map(str, values))
        keys = self._keys[col:]
        return ", ".join(key + json.dumps(v) for key, v in zip(keys, values))


def _write(args, texts):
    """Write a command's rows to the --out file or to stdout; return its exit
    code.  A command yields its exit code with its header, then at least one
    row, and raises on an error in a row.  Neither output is opened before
    the first row exists, so an error in that row, of an argument or of a
    number, leaves stdout empty and the --out file as it was.  A reader that
    closes stdout early (``| head``) ends the output quietly.
    """
    code, header = next(texts)
    first = header + next(texts)
    if args.out in (None, "-"):
        try:
            sys.stdout.write(first)
            sys.stdout.writelines(texts)
            sys.stdout.flush()
        except BrokenPipeError:  # the flush at interpreter exit would fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    try:
        stream = open(args.out, "w", newline="")
    except OSError as exc:
        msg = f"cannot write {args.out!r}: {exc.strerror}"
        raise ConfigError("--out", msg) from exc
    with stream:
        stream.write(first)
        stream.writelines(texts)
    return code


def cmd_coefficients(args):
    spec = _load_spec(args.potential)
    ks = [_parse_k(t) for t in args.k] or [1.0 + 0j]
    grid = _parse_grid(args.grid) if args.grid else None
    intervals = [_parse_interval(t) for t in args.interval]
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
    rows = _Rows(args.format, header)
    yield 0, rows.header
    # each interval's cells, and each k's below, are formatted once
    heads = [rows.start + rows.cells(0, span) + rows.sep for span in intervals]
    for k in ks:
        sweep = transfer.Sweep(spec, k, args.method, args.step)
        k_cells = rows.cells(2, [k.real, k.imag]) + rows.sep
        for span, head in zip(intervals, heads):
            tau, rr, rl, _ = sweep.between(*sweep.points(span))
            coefficients = [tau.real, tau.imag, rr.real, rr.imag, rl.real, rl.imag]
            yield head + k_cells + rows.cells(4, coefficients) + rows.end


def _born(sweep, q, p, args):
    if args.method != "exact_piecewise":
        raise ConfigError("--method", "route born samples f directly; it has no rk4")
    gv = born_mod.born_series(sweep.spec, q.x, p.x, sweep.k, max_order=args.order)[0]
    return gv.value, gv.truncation_loss


# route name -> (the route column, its pair reader: (sweep, q, p, args) -> the
# (G, truncation loss) at the sweep's table entries q and p, q <= p, raising a
# pole's error); the column is the route of the library's GreenValue, with the
# Born order.  Every pair at one k reads the same sweep.  Functions are
# looked up at call time so that rebinding a module attribute reaches the CLI.
_ROUTES = {
    "A": ("wronskian", lambda s, q, p, a: sl3.wronskian_at(s, q, p)),
    "B": ("closed_form", lambda s, q, p, a: green_mod.closed_form_at(s, q, p)),
    "C": ("polyrep_symmetric", lambda s, q, p, a: green_mod.polyrep_at(s, q, p, a.P)),
    "C-asym": ("polyrep_asymmetric", lambda s, q, p, a: green_mod.polyrep_at(
        s, q, p, a.P, "asymmetric"
    )),
    "born": ("born_{order}", _born),
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
    label, route = _ROUTES[args.route]
    check = green_mod.closed_form_at
    label = label.format(order=args.order)
    rows = _Rows(args.format, header)
    yield 0, rows.header
    # each grid point's cells as x and as y, and each k's, formatted once
    xs = [rows.start + rows.cells(0, [x]) + rows.sep for x in grid]
    ys = [rows.cells(1, [y]) + rows.sep for y in grid]
    for k in ks:
        sweep = transfer.Sweep(spec, k, args.method, args.step)
        points = sweep.points(grid)
        k_cells = rows.cells(2, [k.real, k.imag]) + rows.sep
        # every route orders (x, y) before it computes, so G(x, y) and
        # G(y, x) are the same bits: a row below the diagonal reuses the
        # text after y of the one above it, each formatted when grid order
        # first meets it.  Each pair is computed as it is yielded, so a
        # failure leaves the rows before it written.
        mirrored = {}
        for i, q in enumerate(points):
            for j in range(i):
                yield xs[i] + ys[j] + mirrored.pop((j, i))
            for j, p in enumerate(points[i:], i):
                try:
                    g, loss = route(sweep, q, p, args)
                except (DenominatorZero, WronskianZero):  # a bound-state pole
                    cells = ["", "", "pole", ""] + ([""] if args.check else [])
                else:
                    val = 2j * k * g
                    cells = [val.real, val.imag, label, loss]
                    if args.check:  # route B is its own check
                        try:
                            b = g if args.route == "B" else check(sweep, q, p)[0]
                        except DenominatorZero:  # route B's pole
                            cells.append("")
                        else:
                            cells.append(abs(val - 2j * k * b))
                tail = k_cells + rows.cells(4, cells) + rows.end
                if j > i:
                    mirrored[i, j] = tail
                yield xs[i] + ys[j] + tail


def cmd_verify(args):
    reports = verify.run_suite(
        seed=args.seed, P=args.P, corrupt=args.inject_corruption
    )
    yield (0 if all(r.status == "pass" for r in reports) else 1), ""  # no header
    for r in reports:
        yield (json.dumps(r.to_dict()) if args.format == "jsonl" else r.line()) + "\n"


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
    p.set_defaults(func=cmd_coefficients, command="coefficients")

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
    p.set_defaults(func=cmd_green, command="green")

    p = sub.add_parser("verify", help="run the identity verification suite")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--P", type=int, default=48)
    p.add_argument("--inject-corruption", action="store_true",
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify, command="verify")
    parser.commands = sub.choices  # command name -> its parser
    return parser


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        # a command's parser reads the rest once, not the top-level one first;
        # other argv, or extras, take the full parser and its messages
        sub = parser.commands.get(argv[0]) if argv else None
        if sub:
            args, extras = sub.parse_known_args(argv[1:])
        if not sub or extras:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; normalize other codes
        raise SystemExit(2 if exc.code else 0)
    try:
        return _write(args, args.func(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Gf1dError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
