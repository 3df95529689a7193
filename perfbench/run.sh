#!/usr/bin/env bash
# Builds the benchmark and the lard-server binary from the checkout's
# sources, then runs the benchmark with the given arguments, for example:
#
#   bash perfbench/run.sh --workload fig7-cold --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, stores,
# spans and profiles all stay under .bench_build in the checkout.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/lard-server" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (lard sources not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -o "$out/bin/lard-server" ./cmd/lard-server
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -server-bin "$out/bin/lard-server" -go "$(command -v go)" -work "$out/perfbench" "$@"
