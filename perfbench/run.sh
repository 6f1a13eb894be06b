#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload fig4-sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$out/perfbench" .) >&2

# The workloads keep their trace file and disk cache in .bench_build/tmp.
# Where the kernel lets an unprivileged process have its own mount
# namespace, the run gets a private tmpfs mounted over that directory,
# seen by no other process and gone when the run ends, so that the
# sync latency of a disk shared with other work stays out of the
# timings. Elsewhere the files stay on the checkout's file system. The
# stamp line says which.
mount_tmpfs='mount -t tmpfs -o size=256m perfbench "$1"'
if unshare --user --map-root-user --mount sh -c "$mount_tmpfs" sh "$out/tmp" 2>/dev/null; then
	exec unshare --user --map-root-user --mount \
		sh -c "$mount_tmpfs"' && shift && exec "$@"' sh "$out/tmp" "$out/perfbench" "$@"
fi
exec "$out/perfbench" "$@"
