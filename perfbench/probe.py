"""Set-up probe: a fresh interpreter imports gf1d and loads one medium file.

Usage: python3 perfbench/probe.py MEDIUM.json
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gf1d  # noqa: E402

gf1d.load_potential(sys.argv[1])
