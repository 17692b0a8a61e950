#!/bin/sh
# Critical-section check: a stored version page is changed in place in
# ONE place, version.(*Store).UpdateVersionPage — the §5.2 locked
# read-modify-write that sets commit references, and that the §5.3 lock
# fields, the file table's tombstones and the collector's reshare share,
# with one bounded wait on a held block lock. This fails when a program
# file outside internal/version calls block.WithLock itself, i.e. when a
# second copy of the critical section comes back.
#
# Out of scope: tests, comments, and benchmark/ (its own module).
#
# Run from the repo root: scripts/check-critical-section.sh
set -eu

hits=$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/version/*' ! -path './benchmark/*' ! -path './.git/*' | sort |
    xargs grep -n 'block\.WithLock(' /dev/null | grep -v ':[[:space:]]*//' || true)
if [ -n "$hits" ]; then
    echo "check-critical-section: block.WithLock called outside internal/version:" >&2
    echo "$hits" >&2
    exit 1
fi
echo "check-critical-section: every version-page update goes through version.UpdateVersionPage"
