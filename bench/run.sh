#!/bin/sh
# Builds the repository benchmark from this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   sh bench/run.sh -workload all -seed 1
#   sh bench/run.sh -workload served -seed 3 -trace 1
#   sh bench/run.sh compare before.jsonl after.jsonl
#
# The Go build cache, the binary and every file a run writes stay under
# .bench_build/ in the repository root. Outside a full checkout (no ../go.mod
# for the replace directive) the build fails and the script exits non-zero.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/moca-bench" .)
exec "$out/moca-bench" "$@"
