"""The set-up path: importing gf1d and loading a medium loads no numpy, and
a JSON medium loads no yaml.

A fresh interpreter that imports gf1d and calls ``load_potential`` pays
for every module that path pulls in; the benchmark's set-up probe does
exactly this.  Work added there shows as start-up time on every run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

SRC = Path(__file__).resolve().parents[1] / "src"

MEDIA = {
    "constant": {"type": "constant", "c": 0.7},
    "linear": {"type": "linear", "c0": 0.3, "c1": -0.5},
    "sampled": {"type": "sampled", "points": [[0.0, 0.2], [0.5, -0.4], [1.0, 0.1]]},
}

PROBE = """
import sys
import gf1d
for path in sys.argv[1:]:
    gf1d.load_potential(path)
print(sorted(m for m in sys.modules if m == "gf1d" or m.startswith("gf1d.")))
print("numpy" in sys.modules)
print("yaml" in sys.modules)
"""


def _probe(tmp_path, suffixes):
    """The probe's three lines after loading every medium in each format."""
    paths = []
    for name, profile in MEDIA.items():
        doc = {"segments": [{"x_start": 0.0, "x_end": 1.0, "profile": profile}]}
        texts = {".json": json.dumps(doc), ".yaml": yaml.safe_dump(doc)}
        for suffix in suffixes:
            path = tmp_path / f"{name}{suffix}"
            path.write_text(texts[suffix])
            paths.append(str(path))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *paths],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_loading_media_imports_no_numpy(tmp_path):
    modules, numpy_loaded, _ = _probe(tmp_path, (".json", ".yaml"))
    assert modules == repr(["gf1d", "gf1d.errors", "gf1d.potential"])
    assert numpy_loaded == "False"


def test_loading_json_media_imports_no_yaml(tmp_path):
    # importing yaml takes about 20 ms: only a document json rejects needs it
    _, _, yaml_loaded = _probe(tmp_path, (".json",))
    assert yaml_loaded == "False"
