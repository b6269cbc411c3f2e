"""The benchmark's tracer binds gf1d functions by name; a rename or a changed
signature in the library must fail here rather than break ``--trace 1``, and
a value path that leaves a counted method must fail here rather than read 0."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = f"""
import sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "perfbench")!r}]
import tracing
from gf1d import born, green, sl3, slab
from gf1d.potential import LinearProfile, PotentialSpec, Segment

t = tracing.Tracer()
tracing.install(t)
spec, k = slab(0.8, -0.5, 0.5), 1.2 + 0.2j
sl3.green_wronskian(spec, 0.3, -0.2, k)
green.green_closed_form(spec, 0.3, -0.2, k)
green.green_polyrep(spec, 0.3, -0.2, k, P=16)
green.green_product(spec, [(0.3, -0.2), (0.1, 0.0)], k, P=16)
born.born_series(spec, 0.3, -0.2, k, max_order=2)
want = {{
    "sl3.green_wronskian", "green.green_closed_form", "green.green_polyrep",
    "green.green_product", "polyrep.apply_U.P16", "polyrep.inner_product.P16",
    "polyrep.apply_generator", "polyrep.vectors", "born.order2",
}}
missing = want - set(t.names)
assert not missing, missing
# the medium counter: rk4 on a linear medium reads f through the spec
t.counts.clear()
linear = PotentialSpec((Segment(-0.5, 0.5, LinearProfile(0.2, 0.6)),))
green.green_closed_form(linear, 0.3, -0.2, k, method="rk4")
assert t.counts["potential.segment_at"] >= 1, dict(t.counts)
"""


# the benchmark worker calls routes as gf1d.<name> after a bare import of the
# lazy package: a name resolved before the tracer is installed, and one
# resolved only after, must both reach the wrapper
BARE = f"""
import sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "perfbench")!r}]
import gf1d
import tracing

spec, k = gf1d.slab(0.8, -0.5, 0.5), 1.2 + 0.2j
gf1d.green_closed_form(spec, 0.3, -0.2, k)
t = tracing.Tracer()
tracing.install(t)
gf1d.green_closed_form(spec, 0.3, -0.2, k)
gf1d.green_wronskian(spec, 0.3, -0.2, k)
gf1d.green_polyrep(spec, 0.3, -0.2, k, P=16)
gf1d.born_series(spec, 0.3, -0.2, k, max_order=2)
want = {{
    "green.green_closed_form", "sl3.green_wronskian", "green.green_polyrep",
    "polyrep.apply_U.P16", "born.order2",
}}
missing = want - set(t.names)
assert not missing, missing
"""


def _run(script):
    # a subprocess, so the patched namespaces do not leak into other tests
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr


def test_tracer_installs_and_sees_every_route():
    _run(SCRIPT)


def test_tracer_sees_routes_called_through_the_bare_package():
    _run(BARE)
