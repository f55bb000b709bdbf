#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload live-relay --seed 7 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout. Without the repository's own module next to this directory the
# build cannot resolve the code under test, and the script fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
  echo "perfbench: no perigee module at $root; run from a full checkout" >&2
  exit 1
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
(cd "$here" && go build -o "$build/perfbench" .)

# Provenance: the commit when the checkout is a git work tree, and always a
# digest of the Go sources the binary was built from.
PERFBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
PERFBENCH_SOURCE="sha256:$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print \
  | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
export PERFBENCH_COMMIT PERFBENCH_SOURCE

cd "$root"
exec "$build/perfbench" "$@"
