#!/usr/bin/env bash
# Builds the lcsim benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload path_mc --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh regen-ref --ref ssta
#
# Everything the build and the run write goes under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build at the checkout root):
# the Go build cache, the binary, per-run scratch space and reports.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: $root is not an lcsim checkout (no go.mod and internal/ beside perfbench/)" >&2
	exit 1
fi

build="${CARGO_TARGET_DIR:-$root/.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -trimpath -buildvcs=false -o "$build/perfbench" .)

if top="$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" && [ "$top" = "$root" ]; then
	LCBENCH_COMMIT="$(git -C "$root" rev-parse HEAD)"
	export LCBENCH_COMMIT
fi

cd "$root"
if [ "${1:-}" = "regen-ref" ]; then
	exec "$build/perfbench" "$@"
fi
exec "$build/perfbench" --out-dir "$build" "$@"
