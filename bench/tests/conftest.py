"""Harness self-tests: ``python3 -m pytest bench/tests -q`` from the repo
root.  They run the benchmark itself (quick rounds), so they take ~3 min."""

import sys

from bench.spec import ROOT

sys.path.insert(0, str(ROOT / "src"))
