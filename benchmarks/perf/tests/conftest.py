"""Harness self-tests: ``PYTHONPATH=src python -m pytest benchmarks/perf``.

Not part of Tier-1 (``testpaths = ["tests"]``): these test the
instrument, not the program.
"""

import os
import sys

PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(PERF_DIR))
sys.path.insert(0, PERF_DIR)
