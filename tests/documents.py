"""The potential documents the test suite writes, kept in one place so that
the loader parity test (``test_potential.py``) reads every one of them."""

import json

POT = """
segments:
  - x_start: -0.5
    x_end: 0.5
    profile: {type: constant, c: 0.8}
"""
POT_LEFT_TAIL = POT + "left_tail: {type: constant, c: 0.05}\n"
POT_RIGHT_TAIL = POT + "right_tail: {type: constant, c: 0.25}\n"

# f = 1 in both tails and 0 on [-1, 1]: a bound state at the real k below
# the tail threshold, where the closed-form denominator vanishes
POLE_POT = """
left_tail: {type: constant, c: 1.0}
right_tail: {type: constant, c: 1.0}
segments:
  - x_start: -1.0
    x_end: 1.0
    profile: {type: constant, c: 0.0}
"""
# the bound state of POLE_POT
POLE_K = 0.5149332646611294

RAMP = (
    "segments:\n"
    "  - x_start: 0\n"
    "    x_end: 1\n"
    "    profile: {type: linear, c0: 0.0, c1: 1.0}\n"
)
LINEAR = (
    "segments:\n"
    "  - x_start: 0\n"
    "    x_end: 1\n"
    "    profile: {type: linear, c0: 0.2, c1: 0.6}\n"
)
LINEAR_JSON = json.dumps(
    {
        "segments": [
            {
                "x_start": 0,
                "x_end": 1,
                "profile": {"type": "linear", "c0": 0.1, "c1": -0.2},
            }
        ]
    }
)

TAIL_ONLY = "left_tail: {type: constant, c: 0.3}\n"
# the same medium with the zero segment on [0, 1] written out
TAIL_ONLY_EXPLICIT = (
    TAIL_ONLY + "segments:\n"
    "  - {x_start: 0, x_end: 1, profile: {type: constant, c: 0.0}}\n"
)
TAILED_SLAB = (
    "left_tail: {type: constant, c: 0.6}\n"
    "segments:\n"
    "  - {x_start: -0.5, x_end: 0.1, profile: {type: constant, c: 1.1}}\n"
)

# six constant slabs on [-1.5, 1.5] with uneven inner edges and a constant
# left tail: the shape of the media the cli_grid benchmark draws
SIX_SLABS = (
    "left_tail: {type: constant, c: 0.35}\n"
    "segments:\n"
    "  - {x_start: -1.5, x_end: -0.93, profile: {type: constant, c: 0.7}}\n"
    "  - {x_start: -0.93, x_end: -0.52, profile: {type: constant, c: -1.1}}\n"
    "  - {x_start: -0.52, x_end: 0.04, profile: {type: constant, c: 0.25}}\n"
    "  - {x_start: 0.04, x_end: 0.61, profile: {type: constant, c: 0.9}}\n"
    "  - {x_start: 0.61, x_end: 0.95, profile: {type: constant, c: -0.45}}\n"
    "  - {x_start: 0.95, x_end: 1.5, profile: {type: constant, c: 1.05}}\n"
)
# f rises linearly from 0.5 to 1.5 on [0, 1], is 0.3 on [1, 2] and falls
# linearly from 1.5 to 0.5 on [2, 3]
RAMP_STEP_RAMP = (
    "segments:\n"
    "  - {x_start: 0, x_end: 1, profile: {type: linear, c0: 0.5, c1: 1.0}}\n"
    "  - {x_start: 1, x_end: 2, profile: {type: constant, c: 0.3}}\n"
    "  - {x_start: 2, x_end: 3, profile: {type: linear, c0: 1.5, c1: -1.0}}\n"
)

# media whose numbers are all finite but whose f is not: a slope past the
# float range between samples a subnormal distance apart, a linear f that
# overflows at the segment's end, and samples whose difference overflows
NON_FINITE_F = {
    "subnormal-samples": (
        "segments:\n"
        "  - {x_start: 0, x_end: 0.5, profile: {type: sampled,\n"
        "     points: [[0, 0], [2.225073858507e-311, 1]]}}\n",
        "segments[0].profile",
    ),
    "linear-overflow": (
        "segments:\n"
        "  - {x_start: 0, x_end: 10, profile: {type: linear, c0: 0, c1: 1.0e+308}}\n",
        "segments[0].profile",
    ),
    "sampled-overflow": (
        "segments:\n"
        "  - {x_start: 0, x_end: 1, profile: {type: sampled,\n"
        "     points: [[0, -1.0e+308], [1, 1.0e+308]]}}\n",
        "segments[0].profile",
    ),
}

# documents the loader rejects, each with the field its ConfigError names
MALFORMED = {
    **NON_FINITE_F,
    "missing-x-end": ("segments:\n  - x_start: 0\n", "segments[0].x_end"),
    "unknown-profile": (
        "segments:\n  - {x_start: 0, x_end: 1, profile: {type: nope}}\n",
        "segments[0].profile.type",
    ),
    "list-root": ("- just\n- a list\n", "<root>"),
    "unclosed-mapping": ("bad: [", "<document>"),
    "unclosed-segments": ("segments: [", "<document>"),
    "linear-tail": ("left_tail: {type: linear}\n", "left_tail.type"),
    "nan-profile": (
        "segments:\n"
        "  - {x_start: 0, x_end: 1, profile: {type: constant, c: .nan}}\n",
        "segments[0].profile",
    ),
    "inf-tail": ("left_tail: {type: constant, c: .inf}\n", "left_tail"),
    "inf-edge": (
        "segments:\n"
        "  - {x_start: 0, x_end: .inf, profile: {type: constant, c: 0.5}}\n",
        "segments[0]",
    ),
}

VALID = {
    "pot": POT,
    "pot-left-tail": POT_LEFT_TAIL,
    "pot-right-tail": POT_RIGHT_TAIL,
    "pole": POLE_POT,
    "ramp": RAMP,
    "linear": LINEAR,
    "linear-json": LINEAR_JSON,
    "tail-only": TAIL_ONLY,
    "tail-only-explicit": TAIL_ONLY_EXPLICIT,
    "tailed-slab": TAILED_SLAB,
    "six-slabs": SIX_SLABS,
    "ramp-step-ramp": RAMP_STEP_RAMP,
}
