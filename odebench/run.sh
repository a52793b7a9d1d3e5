#!/usr/bin/env bash
# Builds odebench from this checkout and runs one workload:
#
#   bash odebench/run.sh --workload scan|oltp|xshard --seed N --seconds S --trace 0|1
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout: the Go build cache, the
# binary, the databases of the run (removed when it ends) and the span
# files of traced runs.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/home"
export HOME=$out/home GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath \
	GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/odebench" && go build -buildvcs=false -o "$out/odebench" .)
run=$(mktemp -d "$out/tmp/run.XXXXXX")
trap 'rm -rf "$run"' EXIT
TMPDIR=$run ODEBENCH_OUT=$out/traces "$out/odebench" "$@"
