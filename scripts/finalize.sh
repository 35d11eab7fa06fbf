#!/usr/bin/env bash
# Final verification sequence: full test suite, the paper-reproduction
# harness (benchmarks/test_*.py assertions), and their output files.
# Timing lives in benchmarks/perf (see BENCHMARK.json), not here.
set -u
cd "$(dirname "$0")/.."

echo "== tests =="
python -m pytest tests/ 2>&1 | tee test_output.txt | tail -2

echo "== paper-reproduction harness (assertions) =="
python -m pytest benchmarks/ --ignore=benchmarks/perf -p no:cacheprovider 2>&1 | tee bench_output.txt | tail -2
