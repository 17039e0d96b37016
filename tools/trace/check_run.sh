#!/usr/bin/env bash
# Run g2gsim once with --trace-out, then fail unless `g2g-trace --check`
# finds no protocol anomaly in the trace. The trace is deleted when it is
# clean and kept for inspection when it is not.
#
#   tools/trace/check_run.sh <g2gsim> <g2g-trace> <out.jsonl> [g2gsim args...]
set -euo pipefail

sim=$1
analyzer=$2
out=$3
shift 3

"$sim" "$@" --trace-out "$out" >/dev/null
"$analyzer" --check "$out"
rm -f "$out"
