"""Scattering medium described by the function f(x).

The medium is specified piecewise on a finite support, with vacuum or
constant tails; every number in it is finite, and so is f.  f is linear
between consecutive breakpoints, so the rest of the package reads it in one way:
``PotentialSpec.knots`` cuts an interval at the breakpoints, and
``PotentialSpec.ends`` gives f at both ends of each stretch; a stretch is
constant when the two values are equal.  The Schrodinger potential
V(x) = f(x)**2 + f'(x) is derived from f; jumps of f produce delta
functions in V with weight equal to the jump height.
"""

from __future__ import annotations

import bisect
import cmath
import contextlib
import io
import json
import math
import numbers
from dataclasses import dataclass, field

from .errors import ConfigError

__all__ = [
    "Profile",
    "ConstantProfile",
    "LinearProfile",
    "SampledProfile",
    "PotentialSpec",
    "slab",
    "evaluate_f",
    "load_potential",
    "check_wavenumber",
    "check_point",
    "check_spec",
]


def check_wavenumber(k):
    """Validate that k is a finite, nonzero number with Im k >= 0; return it
    as complex.  A bool is refused, though Python counts it a number."""
    if type(k) is not complex:  # a complex skips the slower ABC check
        if isinstance(k, bool) or not isinstance(k, numbers.Complex):
            raise ConfigError("k", f"wavenumber must be a number, got {k!r}")
        k = complex(k)
    if not cmath.isfinite(k) or k == 0 or k.imag < 0:
        raise ConfigError(
            "k", f"wavenumber must be finite and nonzero with Im k >= 0, got {k}"
        )
    return k


def check_point(x, field="x"):
    """Validate that a position, or any number of the medium, is a finite
    real number, not a bool; return it unchanged."""
    # a float skips the slower ABC check
    if type(x) is not float and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
        raise ConfigError(field, f"must be a real number, got {x!r}")
    if not math.isfinite(x):
        raise ConfigError(field, f"must be finite, got {x}")
    return x


def check_spec(spec):
    """Validate that a medium is a ``PotentialSpec``; return it."""
    if not isinstance(spec, PotentialSpec):
        raise ConfigError("spec", f"must be a PotentialSpec, got {spec!r}")
    return spec


@dataclass(frozen=True)
class ConstantProfile:
    c: float

    def __post_init__(self):
        check_point(self.c, "c")

    def value(self, x, x_start):
        return self.c


@dataclass(frozen=True)
class LinearProfile:
    """f(x) = c0 + c1 * (x - x_start) on the segment."""

    c0: float
    c1: float

    def __post_init__(self):
        check_point(self.c0, "c0")
        check_point(self.c1, "c1")

    def value(self, x, x_start):
        return self.c0 + self.c1 * (x - x_start)


@dataclass(frozen=True)
class SampledProfile:
    """Linear interpolation through (x, f) pairs covering the segment."""

    points: tuple  # tuple of (x, f) pairs, x strictly increasing

    def __post_init__(self):
        try:
            pairs = [(x, f) for x, f in self.points]
        except (TypeError, ValueError):
            msg = f"must be (x, f) pairs, got {self.points!r}"
            raise ConfigError("points", msg) from None
        if len(pairs) < 2:
            raise ConfigError("points", "sampled profile needs at least two points")
        for v in (v for pair in pairs for v in pair):
            check_point(v, "points")
        xs = [x for x, _ in pairs]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            msg = "sampled profile abscissae must be strictly increasing"
            raise ConfigError("points", msg)

    def value(self, x, x_start):
        xs = [p[0] for p in self.points]
        i = min(max(bisect.bisect_right(xs, x) - 1, 0), len(xs) - 2)
        (xa, fa), (xb, fb) = self.points[i], self.points[i + 1]
        t = (x - xa) / (xb - xa)
        return fa + t * (fb - fa)


Profile = ConstantProfile | LinearProfile | SampledProfile


@dataclass(frozen=True)
class Segment:
    x_start: float
    x_end: float
    profile: Profile

    def __post_init__(self):
        if not isinstance(self.profile, Profile):
            raise ConfigError("profile", f"must be a profile, got {self.profile!r}")
        check_point(self.x_start, "x_start")
        check_point(self.x_end, "x_end")
        if not self.x_start < self.x_end:
            msg = f"segment needs x_start < x_end, got [{self.x_start}, {self.x_end}]"
            raise ConfigError("x_start", msg)


@dataclass(frozen=True)
class PotentialSpec:
    """Piecewise definition of f(x) plus tail model.

    ``left_tail`` / ``right_tail`` are either None (vacuum, f = 0) or a
    finite float c (constant tail, f = c).  The breakpoints are the segment
    edges, the sample abscissae inside their own segment and, for a medium
    with no segments whose tails differ, the point 0 where the tails
    switch.  f is linear between consecutive breakpoints, so ``ends`` of a
    stretch no breakpoint splits says all there is of f on it; every
    reader of the medium goes through ``knots`` and ``ends``.  Immutable;
    safe to share between threads.
    """

    segments: tuple = ()
    left_tail: float | None = None
    right_tail: float | None = None
    _starts: tuple = field(init=False, repr=False, compare=False, default=())
    _breakpoints: tuple = field(init=False, repr=False, compare=False, default=())
    _support: tuple = field(init=False, repr=False, compare=False, default=(0.0, 0.0))

    def __post_init__(self):
        try:
            segs = tuple(self.segments)
        except TypeError:
            segs = None
        if segs is None or not all(isinstance(s, Segment) for s in segs):
            msg = f"must be a sequence of Segments, got {self.segments!r}"
            raise ConfigError("segments", msg)
        for a, b in zip(segs, segs[1:]):
            if abs(a.x_end - b.x_start) > 1e-12 * max(1.0, abs(a.x_end)):
                msg = f"segments must be contiguous: {a.x_end} != {b.x_start}"
                raise ConfigError("segments", msg)
        left = check_point(self.left_tail or 0.0, "left_tail")
        right = check_point(self.right_tail or 0.0, "right_tail")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "_starts", tuple(s.x_start for s in segs))
        pts = set()
        for s in segs:
            pts.update((s.x_start, s.x_end))
            if isinstance(s.profile, SampledProfile):
                pts.update(x for x, _ in s.profile.points if s.x_start < x < s.x_end)
        if not segs and left != right:
            pts.add(0.0)
        object.__setattr__(self, "_breakpoints", tuple(sorted(pts)))
        if segs:
            object.__setattr__(self, "_support", (segs[0].x_start, segs[-1].x_end))
        # every reader takes f from ``ends``: f at each breakpoint and its
        # change across each stretch must be finite (fb - fa is finite only then)
        for a, b in zip(self._breakpoints, self._breakpoints[1:]):
            fa, fb = self.ends(a, b)
            if not math.isfinite(fb - fa):
                i = bisect.bisect_right(self._starts, 0.5 * (a + b)) - 1
                msg = f"f must stay finite with a finite change on [{a}, {b}]"
                raise ConfigError(f"segments[{i}].profile", f"{msg}, got {fa} to {fb}")

    @property
    def support(self):
        """Hull [x_L, x_R] of the segments; (0.0, 0.0) for a vacuum spec."""
        return self._support

    def segment_at(self, x):
        """The segment that holds x, the right one at a shared edge; None
        outside the support."""
        x_l, x_r = self._support
        if not self.segments or not x_l <= x <= x_r:
            return None
        return self.segments[bisect.bisect_right(self._starts, x) - 1]

    def breakpoints(self):
        """Sorted tuple of the positions where f may jump or change slope."""
        return self._breakpoints

    def knots(self, a, b):
        """[a, the breakpoints strictly between a and b, b]."""
        bps = self._breakpoints
        return [a, *bps[bisect.bisect_right(bps, a) : bisect.bisect_left(bps, b)], b]

    def ends(self, a, b):
        """(f(a), f(b)) on a stretch [a, b] that no breakpoint splits, tails
        included."""
        mid = 0.5 * (a + b)
        seg = self.segment_at(mid)
        if seg is None:
            c = self.left_tail if mid < self._support[0] else self.right_tail
            return float(c or 0.0), float(c or 0.0)
        p, lo = seg.profile, seg.x_start
        return float(p.value(a, lo)), float(p.value(b, lo))


def slab(c, x_start=0.0, x_end=1.0):
    """Single constant-f segment with vacuum tails."""
    return PotentialSpec(segments=(Segment(x_start, x_end, ConstantProfile(c)),))


def _stretch(spec, x, side):
    """(a, b): the stretch between consecutive breakpoints that holds x, the
    tails reaching to -inf and inf.  At a breakpoint side < 0 takes the
    stretch to its left and side > 0 the one to its right; side 0 takes the
    right one, but the left one at the last breakpoint, where the segments
    close."""
    bps = spec.breakpoints()
    if side < 0 or (side == 0 and bps and x == bps[-1]):
        i = bisect.bisect_left(bps, x)
    else:
        i = bisect.bisect_right(bps, x)
    return (bps[i - 1] if i else -math.inf), (bps[i] if i < len(bps) else math.inf)


def evaluate_f(spec, x, side=0):
    """Value of f at x; ``side`` -1/+1 picks the one-sided limit at a jump."""
    a, b = _stretch(spec, x, side)
    return spec.ends(x, b)[0] if x < b else spec.ends(a, x)[1]


# ---------------------------------------------------------------------------
# config-file loading

_PROFILE_TYPES = {"constant", "linear", "sampled"}
# the YAML loader; None takes libyaml's where PyYAML was built with it: it
# accepts the same documents, builds them alike and is several times faster
_LOADER = None


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
    except (TypeError, ValueError, OverflowError) as exc:
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
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}.c", str(exc)) from exc
    raise ConfigError(where, f"invalid tail {node!r}")


def _parse(text, name):
    """The document in text by ``json``, or where json rejects it, by the YAML
    loader reading it as a stream named as the file it came from."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        pass
    import yaml  # here, so that a JSON document never pays for importing it

    loader = _LOADER or getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    stream = io.BytesIO(text) if isinstance(text, bytes) else io.StringIO(text)
    if name is not None:  # YAML's error marks name the stream
        stream.name = name
    try:
        return yaml.load(stream, Loader=loader)
    except (yaml.YAMLError, ValueError) as exc:
        # a ValueError comes from a constructor: an integer past Python's
        # digit limit, or a timestamp that is no date
        raise ConfigError("<document>", f"not valid YAML/JSON: {exc}") from exc


def load_potential(path_or_stream):
    """Parse a JSON or YAML potential document into a PotentialSpec.

    JSON text is read by ``json``; a document it rejects goes to the YAML
    loader as the stream it came from.  Every number of the schema passes
    through ``float()``, so both read JSON text alike.
    """
    try:
        if hasattr(path_or_stream, "read"):
            source = contextlib.nullcontext(path_or_stream)
        else:
            source = open(path_or_stream)
        with source as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("<document>", str(exc)) from exc
    doc = _parse(text, getattr(fh, "name", None))
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
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(where, str(exc)) from exc
    left_tail = _parse_tail(doc.get("left_tail"), "left_tail")
    right_tail = _parse_tail(doc.get("right_tail"), "right_tail")
    return PotentialSpec(tuple(segs), left_tail, right_tail)
