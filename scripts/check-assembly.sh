#!/bin/sh
# Assembly check: the layer constructors a deployment is built from are
# called in ONE place, internal/core (OpenBackend, Mount, NewInstance).
# The binaries, the public afs package and the examples go flags/options
# -> spec -> call; this fails when one of them reaches for a constructor
# directly, i.e. when a hand-written copy of the assembler comes back.
#
# Out of scope: tests, cmd/afs-bench's single-layer micro-arms, and the
# benchmark/ module (frozen; its stack.go compiles against the
# constructors' signatures).
#
# Run from the repo root: scripts/check-assembly.sh
set -eu

pattern='(segstore\.Open|stable\.NewFailoverPair|shard\.New|server\.NewShared|ftab\.NewReplicated|gc\.New|archive\.New)\('
hits=$(grep -rnE "$pattern" --include='*.go' --exclude='*_test.go' \
    cmd/afs-server cmd/afs-block cmd/afs afs examples | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$hits" ]; then
    echo "check-assembly: layer constructors called outside internal/core:" >&2
    echo "$hits" >&2
    exit 1
fi
echo "check-assembly: all assembly goes through internal/core"
