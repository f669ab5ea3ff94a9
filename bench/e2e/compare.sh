#!/usr/bin/env bash
# Parent-vs-change comparison: 10 alternating pairs on a held-out seed.
#   bench/e2e/compare.sh PARENT_BUILD CHANGE_BUILD [--workload W] [--seed S]
# Each *_BUILD is a build-bench-e2e directory built by run.sh in that
# commit's checkout. Run from the root of a checkout (for BENCHMARK.json).
set -euo pipefail
exec python3 "$(dirname "$0")/run.py" compare "$@"
