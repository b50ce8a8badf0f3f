#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is
# run in, then runs it with the given flags. Run it from the repository
# root, e.g.
#
#   bash benchmark/run.sh --workload jobs-mixed --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every scratch file stay under
# .bench_build/ in the current directory; nothing is fetched.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-build" GOPATH="$out/go" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
