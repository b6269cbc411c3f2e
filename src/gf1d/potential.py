"""Scattering medium described by the function f(x).

The medium is specified piecewise on a finite support, with vacuum or
constant tails.  The Schrodinger potential V(x) = f(x)**2 + f'(x) is
derived from f; jumps of f produce delta functions in V with weight equal
to the jump height.
"""

from __future__ import annotations

import bisect
import cmath
from dataclasses import dataclass, field

import yaml

from .errors import ConfigError

__all__ = [
    "Profile",
    "ConstantProfile",
    "LinearProfile",
    "SampledProfile",
    "PotentialSpec",
    "vacuum_spec",
    "slab",
    "evaluate_f",
    "schroedinger_potential",
    "truncate",
    "load_potential",
    "check_wavenumber",
]


def check_wavenumber(k):
    """Validate that k is finite, nonzero and has Im k >= 0; return it as complex."""
    k = complex(k)
    if not cmath.isfinite(k) or k == 0 or k.imag < 0:
        raise ConfigError(
            "k", f"wavenumber must be finite and nonzero with Im k >= 0, got {k}"
        )
    return k


@dataclass(frozen=True)
class ConstantProfile:
    c: float

    def value(self, x, x_start, x_end):
        return self.c

    def derivative(self, x, x_start, x_end):
        return 0.0

    @property
    def is_constant(self):
        return True


@dataclass(frozen=True)
class LinearProfile:
    """f(x) = c0 + c1 * (x - x_start) on the segment."""

    c0: float
    c1: float

    def value(self, x, x_start, x_end):
        return self.c0 + self.c1 * (x - x_start)

    def derivative(self, x, x_start, x_end):
        return self.c1

    @property
    def is_constant(self):
        return self.c1 == 0.0


@dataclass(frozen=True)
class SampledProfile:
    """Linear interpolation through (x, f) pairs covering the segment."""

    points: tuple  # tuple of (x, f) pairs, x strictly increasing

    def __post_init__(self):
        xs = [p[0] for p in self.points]
        if len(xs) < 2:
            raise ValueError("sampled profile needs at least two points")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("sampled profile abscissae must be strictly increasing")

    def _bracket(self, x):
        xs = [p[0] for p in self.points]
        i = bisect.bisect_right(xs, x) - 1
        i = min(max(i, 0), len(xs) - 2)
        return self.points[i], self.points[i + 1]

    def value(self, x, x_start, x_end):
        (xa, fa), (xb, fb) = self._bracket(x)
        t = (x - xa) / (xb - xa)
        return fa + t * (fb - fa)

    def derivative(self, x, x_start, x_end):
        (xa, fa), (xb, fb) = self._bracket(x)
        return (fb - fa) / (xb - xa)

    @property
    def is_constant(self):
        fs = {p[1] for p in self.points}
        return len(fs) == 1


Profile = ConstantProfile | LinearProfile | SampledProfile


@dataclass(frozen=True)
class Segment:
    x_start: float
    x_end: float
    profile: Profile

    def __post_init__(self):
        if not self.x_start < self.x_end:
            raise ValueError(
                f"segment needs x_start < x_end, got [{self.x_start}, {self.x_end}]"
            )


@dataclass(frozen=True)
class PotentialSpec:
    """Piecewise definition of f(x) plus tail model.

    ``left_tail`` / ``right_tail`` are either None (vacuum, f = 0) or a
    float c (constant tail, f = c).  Immutable; safe to share between
    threads.
    """

    segments: tuple = ()
    left_tail: float | None = None
    right_tail: float | None = None
    _starts: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        segs = tuple(self.segments)
        for a, b in zip(segs, segs[1:]):
            if abs(a.x_end - b.x_start) > 1e-12 * max(1.0, abs(a.x_end)):
                raise ValueError(
                    f"segments must be contiguous: {a.x_end} != {b.x_start}"
                )
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "_starts", tuple(s.x_start for s in segs))

    @property
    def support(self):
        """Hull [x_L, x_R] of the segments; (0.0, 0.0) for a vacuum spec."""
        if not self.segments:
            return (0.0, 0.0)
        return (self.segments[0].x_start, self.segments[-1].x_end)

    def segment_at(self, x):
        if not self.segments:
            return None
        x_l, x_r = self.support
        if x < x_l or x > x_r:
            return None
        i = bisect.bisect_right(self._starts, x) - 1
        i = min(max(i, 0), len(self.segments) - 1)
        return self.segments[i]

    def breakpoints(self):
        """Sorted positions where f may jump or change slope."""
        pts = []
        for s in self.segments:
            pts.append(s.x_start)
            pts.append(s.x_end)
            if isinstance(s.profile, SampledProfile):
                pts.extend(p[0] for p in s.profile.points)
        return sorted(set(pts))

    def jump_points(self):
        """List of (position, jump height f(x+) - f(x-))."""
        out = []
        for x in self.breakpoints():
            lo = evaluate_f(self, x, side=-1)
            hi = evaluate_f(self, x, side=+1)
            if lo != hi:
                out.append((x, hi - lo))
        return out


def vacuum_spec():
    return PotentialSpec()


def slab(c, x_start=0.0, x_end=1.0):
    """Single constant-f segment with vacuum tails."""
    return PotentialSpec(segments=(Segment(x_start, x_end, ConstantProfile(c)),))


def evaluate_f(spec, x, side=0):
    """Value of f at x; ``side`` -1/+1 picks the one-sided limit at a jump."""
    x_l, x_r = spec.support
    if not spec.segments or x < x_l or (x == x_l and side < 0):
        if x <= x_l:
            return 0.0 if spec.left_tail is None else float(spec.left_tail)
    if x > x_r or (x == x_r and side > 0) or not spec.segments:
        return 0.0 if spec.right_tail is None else float(spec.right_tail)
    seg = spec.segment_at(x)
    if side < 0 and x == seg.x_start:
        idx = spec.segments.index(seg)
        if idx == 0:
            return 0.0 if spec.left_tail is None else float(spec.left_tail)
        seg = spec.segments[idx - 1]
    if side > 0 and x == seg.x_end:
        idx = spec.segments.index(seg)
        if idx + 1 < len(spec.segments):
            seg = spec.segments[idx + 1]
        else:
            return 0.0 if spec.right_tail is None else float(spec.right_tail)
    return float(seg.profile.value(x, seg.x_start, seg.x_end))


def schroedinger_potential(spec, x):
    """Smooth part f**2 + f' at x, plus the list of delta weights.

    Returns ``(smooth, delta_weights)`` where delta_weights lists every
    jump point x_j with weight f(x_j+) - f(x_j-), independently of x.
    """
    f = evaluate_f(spec, x)
    seg = spec.segment_at(x)
    if seg is None:
        fp = 0.0
    else:
        fp = seg.profile.derivative(x, seg.x_start, seg.x_end)
    return f * f + fp, spec.jump_points()


def truncate(spec, x1, x2):
    """Restriction chi_[x1,x2] * f with vacuum tails."""
    if not x1 < x2:
        raise ValueError(f"truncate needs x1 < x2, got [{x1}, {x2}]")
    segs = []
    # tails become segments where they overlap the window
    x_l, x_r = spec.support
    if not spec.segments:
        x_l = x_r = None
    if spec.left_tail not in (None, 0.0) and x_l is not None and x1 < x_l:
        hi = min(x2, x_l)
        if x1 < hi:
            segs.append(Segment(x1, hi, ConstantProfile(float(spec.left_tail))))
    for s in spec.segments:
        lo, hi = max(s.x_start, x1), min(s.x_end, x2)
        if lo >= hi:
            continue
        if isinstance(s.profile, LinearProfile) and lo != s.x_start:
            prof = LinearProfile(
                s.profile.value(lo, s.x_start, s.x_end), s.profile.c1
            )
        else:
            prof = s.profile
        segs.append(Segment(lo, hi, prof))
    if spec.right_tail not in (None, 0.0) and x_r is not None and x2 > x_r:
        lo = max(x1, x_r)
        if lo < x2:
            segs.append(Segment(lo, x2, ConstantProfile(float(spec.right_tail))))
    return PotentialSpec(segments=tuple(segs))


# ---------------------------------------------------------------------------
# config-file loading

_PROFILE_TYPES = {"constant", "linear", "sampled"}


def _parse_profile(node, where):
    if not isinstance(node, dict):
        raise ConfigError(where, "profile must be a mapping")
    ptype = node.get("type")
    if ptype not in _PROFILE_TYPES:
        raise ConfigError(f"{where}.type", f"unknown profile type {ptype!r}")
    try:
        if ptype == "constant":
            return ConstantProfile(float(node["c"]))
        if ptype == "linear":
            return LinearProfile(float(node["c0"]), float(node["c1"]))
        pts = tuple((float(a), float(b)) for a, b in node["points"])
        return SampledProfile(pts)
    except KeyError as exc:
        raise ConfigError(f"{where}.{exc.args[0]}", "missing required key") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(where, str(exc)) from exc


def _parse_tail(node, where):
    if node in (None, "vacuum"):
        return None
    if isinstance(node, dict):
        if node.get("type") != "constant":
            raise ConfigError(f"{where}.type", "tail must be 'vacuum' or constant")
        try:
            return float(node["c"])
        except KeyError as exc:
            raise ConfigError(f"{where}.c", "missing required key") from exc
    raise ConfigError(where, f"invalid tail {node!r}")


def load_potential(path_or_stream):
    """Parse a YAML/JSON potential document into a PotentialSpec."""
    try:
        if hasattr(path_or_stream, "read"):
            doc = yaml.safe_load(path_or_stream)
        else:
            with open(path_or_stream) as fh:
                doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError("<document>", f"not valid YAML/JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigError("<document>", str(exc)) from exc
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "document must be a mapping")
    seg_nodes = doc.get("segments", [])
    if not isinstance(seg_nodes, list):
        raise ConfigError("segments", "must be a list")
    segs = []
    for i, node in enumerate(seg_nodes):
        where = f"segments[{i}]"
        if not isinstance(node, dict):
            raise ConfigError(where, "segment must be a mapping")
        for key in ("x_start", "x_end", "profile"):
            if key not in node:
                raise ConfigError(f"{where}.{key}", "missing required key")
        prof = _parse_profile(node["profile"], f"{where}.profile")
        try:
            segs.append(Segment(float(node["x_start"]), float(node["x_end"]), prof))
        except (TypeError, ValueError) as exc:
            raise ConfigError(where, str(exc)) from exc
    # tails first: their ConfigError must keep its field name
    left_tail = _parse_tail(doc.get("left_tail"), "left_tail")
    right_tail = _parse_tail(doc.get("right_tail"), "right_tail")
    try:
        return PotentialSpec(tuple(segs), left_tail, right_tail)
    except ValueError as exc:
        raise ConfigError("segments", str(exc)) from exc
