#!/bin/sh
# Doc-drift check, both directions.
#
# Docs to code: every command-line flag the docs attribute to one of the
# cmd/* binaries must actually be defined by that binary. A doc line
# "contributes" flags when it names afs-server, afs-block or afs-bench;
# each `-flag` token on such a line (preceded by a space, "(" or a
# backtick, so prose hyphens don't match) is then required to appear as
# a flag definition ("flagname") somewhere in cmd/<binary>/*.go — the
# binary being the first one the line names.
#
# Code to docs: every flag cmd/afs-server or cmd/afs-block defines must
# appear as such a token on some line of README.md or
# docs/ARCHITECTURE.md that names that binary, so no knob lands
# undocumented.
#
# Run from the repo root: scripts/check-doc-flags.sh
set -eu

status=0
for doc in README.md docs/ARCHITECTURE.md; do
    if [ ! -f "$doc" ]; then
        echo "check-doc-flags: missing $doc" >&2
        exit 1
    fi
    # Emit "cmd flag" pairs, one per line.
    pairs=$(grep -E 'afs-(server|block|bench)' "$doc" | while IFS= read -r line; do
        cmd=$(printf '%s\n' "$line" | grep -oE 'afs-(server|block|bench)' | head -1)
        printf '%s\n' "$line" | grep -oE '[ (`]-[a-z]+(-[a-z]+)*' | sed 's/^.//;s/^-//' | while IFS= read -r f; do
            printf '%s %s\n' "$cmd" "$f"
        done
    done | sort -u)
    [ -n "$pairs" ] || continue
    while IFS=' ' read -r cmd f; do
        [ -n "$cmd" ] || continue
        if ! grep -qE "\"$f\"" "cmd/$cmd"/*.go; then
            echo "$doc names flag -$f for $cmd, but cmd/$cmd does not define it" >&2
            status=1
        fi
    done <<EOF
$pairs
EOF
done
for cmd in afs-server afs-block; do
    flags=$(grep -ohE 'flag\.[A-Za-z0-9]+\("[a-z]+(-[a-z]+)*"' "cmd/$cmd"/*.go | sed 's/.*("//;s/"$//' | sort -u)
    for f in $flags; do
        if ! grep -hE "$cmd" README.md docs/ARCHITECTURE.md | grep -qE "[ (\`]-$f([^a-z-]|\$)"; then
            echo "cmd/$cmd defines flag -$f, but neither README.md nor docs/ARCHITECTURE.md names it for $cmd" >&2
            status=1
        fi
    done
done
if [ "$status" -eq 0 ]; then
    echo "check-doc-flags: all documented flags exist and every daemon flag is documented"
fi
exit "$status"
