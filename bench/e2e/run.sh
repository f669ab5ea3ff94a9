#!/usr/bin/env bash
# End-to-end serving benchmark: the one command. Run from the root of a
# source checkout; see bench/e2e/README.md and `run.sh --help`.
set -euo pipefail
exec python3 "$(dirname "$0")/run.py" "$@"
