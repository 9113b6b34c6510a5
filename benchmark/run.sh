#!/bin/sh
# The one-line entry point: builds the benchmark (offline, release) and
# runs it. With no arguments it measures a full set:
#
#   benchmark/run.sh                      # = run, default seed, benchmark/results/latest
#   benchmark/run.sh run --seed 7 --out /tmp/a
#   benchmark/run.sh compare /tmp/a /tmp/b
set -e
cd "$(dirname "$0")"
if [ $# -eq 0 ]; then
    set -- run
fi
exec cargo run --release --quiet --offline -- "$@"
