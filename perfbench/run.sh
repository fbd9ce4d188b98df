#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload home-mgmt --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artifact (binary, Go
# build cache, GOPATH, temp files) and the traced runs' span files stay
# under .bench_build in that root ($CARGO_TARGET_DIR when set).
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
if [[ ! -f "$root/go.mod" ]]; then
	echo "perfbench: the program's sources (go.mod) are missing from $root" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --trace-dir "$build/traces" "$@"
