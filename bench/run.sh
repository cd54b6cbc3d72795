#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the current
# checkout and runs it with the given arguments. Everything the Go
# toolchain and the programs under test write (build cache, temporary
# files, native artifacts, state files) is kept inside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/home"
# Every run creates and deletes a few thousand cache files. On ext4
# without a journal (this sandbox) the inode allocator walks past every
# inode deleted in the last minute, so a file create slows from 40 us to
# 400 us over successive runs and cold_ms_p50 drifts by 40% with the
# order of the runs. Marking tmp a top-level directory makes the
# allocator spread each run's directory to another block group, away
# from the previous runs' deleted inodes. Best effort: elsewhere it is a
# no-op or fails, and the numbers are only noisier for it.
chattr +T "$build/tmp" 2>/dev/null || true
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
unset XDG_CACHE_HOME XDG_CONFIG_HOME ZPL_ARTIFACT_DIR ZPL_CACHE_DIR
go build -C "$here" -o "$build/zplbench" .
exec "$build/zplbench" "$@"
