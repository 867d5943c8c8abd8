#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The Go build cache, the binary, graph files, checkpoints and result records
# all go to .bench_build/ under the current directory; nothing is fetched.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

cd "$here"
if ! go build -o "$out/bin/perfbench" . 2>"$out/build.log"; then
	# Without a usable git checkout, build without VCS stamping; any other
	# failure repeats here and is reported.
	go build -buildvcs=false -o "$out/bin/perfbench" .
fi
cd - >/dev/null
exec "$out/bin/perfbench" "$@"
