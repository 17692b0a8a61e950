#!/bin/sh
# Observability smoke: boot a real deployment — a 2-shard durable block
# service of mirrored pairs and a 2-server file service with tracing on
# — run a small workload through the CLI, then assert that the debug
# listeners serve per-command RPC metrics on /metrics (and, on the block
# service that owns them, the segment-log and pair-half families per
# served shard), that /debug/traces holds a commit trace whose spans
# cover at least 4 layers (the server dispatch, the OCC commit section,
# the shard fan-out and the remote block hops), and that a plain kill
# (SIGTERM) takes both daemons down their shutdown path.
#
# Run from the repo root: scripts/observability-smoke.sh
set -eu

tmp=$(mktemp -d)
block_pid=""
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    [ -n "$block_pid" ] && kill "$block_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/afs-block" ./cmd/afs-block
go build -o "$tmp/afs-server" ./cmd/afs-server
go build -o "$tmp/afs" ./cmd/afs

# Both daemons print their comma-separated PORT@ADDR endpoints as the
# first stdout line once they are serving.
wait_endpoints() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "observability-smoke: timed out waiting for $1" >&2
            exit 1
        fi
        sleep 0.1
    done
    head -n 1 "$1"
}

"$tmp/afs-block" -store=seg -dir="$tmp/blocks" -shards=2 -pair -debug-addr=127.0.0.1:8098 \
    >"$tmp/blocks.out" 2>"$tmp/blocks.err" &
block_pid=$!
blocks=$(wait_endpoints "$tmp/blocks.out")

"$tmp/afs-server" -servers=2 -blocks="$blocks" \
    -trace-sample=1 -trace-slow=1ms -debug-addr=127.0.0.1:8099 \
    >"$tmp/server.out" 2>"$tmp/server.err" &
server_pid=$!
servers=$(wait_endpoints "$tmp/server.out")

# The workload: an untraced CLI client (the server self-samples).
cap=$("$tmp/afs" -servers="$servers" create "observability smoke")
"$tmp/afs" -servers="$servers" write "$cap" / "rewritten by smoke" >/dev/null
out=$("$tmp/afs" -servers="$servers" read "$cap")
if [ "$out" != "rewritten by smoke" ]; then
    echo "observability-smoke: read back \"$out\"" >&2
    exit 1
fi

curl -fsS 127.0.0.1:8099/metrics >"$tmp/metrics.out"
grep -q 'afs_rpc_seconds_bucket{.*cmd="commit"' "$tmp/metrics.out" || {
    echo "observability-smoke: /metrics has no afs_rpc_seconds series for commit" >&2
    exit 1
}
grep -q 'side="client"' "$tmp/metrics.out" || {
    echo "observability-smoke: /metrics has no client-side (block mount) RPC series" >&2
    exit 1
}

# The block service owns the segment logs and the pair halves: their
# families are served there, labelled by served shard.
curl -fsS 127.0.0.1:8098/metrics >"$tmp/block-metrics.out"
for series in 'afs_segstore_total{.*shard="1"' 'afs_segstore_append_seconds_bucket{.*shard="0"' \
    'afs_mirror_half_down{.*shard="0"' 'afs_mirror_half_events_total{.*shard="1"' \
    'afs_rpc_seconds_bucket{.*side="server"'; do
    grep -q "$series" "$tmp/block-metrics.out" || {
        echo "observability-smoke: afs-block /metrics has no series matching $series" >&2
        exit 1
    }
done

curl -fsS 127.0.0.1:8099/debug/traces >"$tmp/traces.out"
python3 - "$tmp/traces.out" <<'EOF'
import sys

blocks, cur = [], None
for line in open(sys.argv[1]):
    if line.startswith("trace "):
        cur = []
        blocks.append(cur)
    elif cur is not None and line.strip():
        parts = line.split()
        if len(parts) >= 2:
            cur.append((parts[0], parts[1]))

best = set()
for spans in blocks:
    # The root span is the first rendered line; a self-sampled commit
    # trace is rooted at the server's dispatch span for "commit".
    if not spans or spans[0] != ("server", "commit"):
        continue
    layers = {layer for layer, _ in spans}
    if len(layers) > len(best):
        best = layers
if not best:
    sys.exit("no commit trace (server/commit root) in /debug/traces")
if len(best) < 4:
    sys.exit(f"commit trace covers only {sorted(best)}; want >= 4 layers")
print(f"commit trace covers {len(best)} layers: {sorted(best)}")
EOF

# Plain kill is SIGTERM — what systemd and docker send. Both daemons
# must run their shutdown path (push-stream drain, store close, totals),
# not die mid-flight.
kill "$server_pid" && wait "$server_pid" 2>/dev/null || true
kill "$block_pid" && wait "$block_pid" 2>/dev/null || true
server_pid="" block_pid=""
grep -q 'msg="file service down"' "$tmp/server.err" || {
    echo "observability-smoke: afs-server skipped its shutdown path on SIGTERM" >&2
    exit 1
}
grep -q 'msg="shutting down"' "$tmp/blocks.err" || {
    echo "observability-smoke: afs-block skipped its shutdown path on SIGTERM" >&2
    exit 1
}

echo "observability-smoke: ok"
