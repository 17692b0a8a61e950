#!/bin/sh
# Walker check: the page tree is walked in ONE place, internal/version
# (Store.Visit and the page passes). This fails when a program file
# anywhere else under internal/ reads a child page inside a loop over a
# page's references — ReadPage(r.Block), ReadPage(ref.Block), a scalar
# Read of a child block, or the function calling itself on one — i.e.
# when a hand-written recursive walker comes back.
#
# Deliberate exceptions, each a walk Visit does not model:
#   internal/archive/archiver.go verifyTree    walks the archive store
#       and hashes raw payloads, not decoded front-tier pages
#   internal/occ/occ.go          mergeChildren a co-walk of two trees
#       (the uncommitted and the committed version) in step
#
# Out of scope: tests, and code outside internal/ (cmd/afs-bench prints
# trees in depth-first order on purpose).
#
# Run from the repo root: scripts/check-walkers.sh
set -eu

exempt='internal/archive/archiver.go:verifyTree internal/occ/occ.go:mergeChildren'

hits=$(find internal -name '*.go' ! -name '*_test.go' ! -path 'internal/version/*' | sort |
    xargs awk -v exempt="$exempt" '
    FNR == 1 { depth = 0; fn = "" }
    /^func / {
        fn = $0
        sub(/^func (\([^)]*\) )?/, "", fn)
        sub(/[^A-Za-z0-9_].*/, "", fn)
    }
    depth > 0 {
        if ($0 ~ /ReadPage\([A-Za-z0-9_]+\.Block\)/ || $0 ~ /\.Read\([^()]*, *[A-Za-z0-9_]+\.Block\)/ ||
            (fn != "" && $0 ~ ("[^A-Za-z0-9_]" fn "\\([^()]*[A-Za-z0-9_]+\\.Block\\)"))) {
            if (index(" " exempt " ", " " FILENAME ":" fn " ") == 0) {
                print FILENAME ":" FNR ": " fn ":" $0
            }
        }
        depth += gsub(/\{/, "{") - gsub(/\}/, "}")
        next
    }
    /for .* range .*\.Refs[[:space:]]*\{/ { depth = 1 }
    ')
if [ -n "$hits" ]; then
    echo "check-walkers: child pages read in a loop over references outside internal/version:" >&2
    echo "$hits" >&2
    exit 1
fi
echo "check-walkers: every page-tree walk goes through internal/version"
