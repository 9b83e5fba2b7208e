#!/usr/bin/env bash
# Builds the end-to-end campaign benchmark from this checkout's sources and
# runs one measurement. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload reduce-bisect --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, binary, scratch stores) stays
# under .bench_build/ in the current directory. The last line of standard
# output is the JSON result; BENCHMARK.json names every metric it carries.
#
# The run's stores live in .bench_build/work, on a tmpfs mounted there in a
# private mount namespace that ends with the run: on a small shared VM the
# disk's file-creation latency swings tenfold within seconds, and a campaign
# creates hundreds of blob files, so on disk the host's I/O, not the program,
# would set the run-to-run spread (LEDGER.md has the figures). Where a mount
# namespace is not allowed, the stores stay on disk and a note says so.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
work="$build/work"
mkdir -p "$build/tmp" "$work"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)

# In the new namespace: mount the tmpfs, then replace the shell with the
# benchmark, so the caller waits on the benchmark process itself.
inmem='mount -t tmpfs -o size=2g,mode=0755 e2ebench "$0" && exec "$@"'
for ns in "--mount" "--mount --map-root-user"; do
	# shellcheck disable=SC2086 # $ns holds separate flags
	if unshare $ns --propagation private sh -c 'mount -t tmpfs e2ebench "$0"' "$work" 2>/dev/null; then
		# shellcheck disable=SC2086
		exec unshare $ns --propagation private sh -c "$inmem" "$work" "$build/e2ebench" -workdir "$work" "$@"
	fi
done
echo "e2ebench: no private mount namespace here; stores stay on disk" >&2
exec "$build/e2ebench" -workdir "$work" "$@"
