#!/usr/bin/env bash
# Builds hostbench from the sources of this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash hostbench/run.sh --workload suite --seed 1 --seconds 10 --trace 0
#
# Every build product and the Go build cache stay under .bench_build/ in
# the checkout. Outside a full checkout (no go.mod or internal/ next to
# hostbench/) the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/hostbench" ]]; then
	echo "hostbench: run from the repository root (go.mod, internal/ and hostbench/ are not all here)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/hostbench" && go build -o "$build/hostbench" .)
exec "$build/hostbench" "$@"
