#!/usr/bin/env bash
# The one way the benchmark is run: by the driver (BENCHMARK.json's command),
# by aa.sh and by hand. Builds on first use, then runs with the arguments
# given.
#
# The engine prints diagnostics ("oql: plan drift ...", several hundred lines
# in a cold_pipeline run) to stderr from inside the timed windows, so what
# stderr is connected to is part of the measurement. Here it is always a file,
# benchmark/out/stderr.log, shown only if the run fails.
set -u
here=$(cd "$(dirname "$0")" && pwd)
mkdir -p "$here/out"
cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@" \
    2>"$here/out/stderr.log"
status=$?
if [ "$status" -ne 0 ]; then
    cat "$here/out/stderr.log" >&2
fi
exit "$status"
