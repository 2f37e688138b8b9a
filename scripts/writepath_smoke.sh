#!/bin/sh
# Adaptive write-path smoke test: boot a race-instrumented komodo-serve
# with adaptive batch sizing, cross-request dedup, and group-commit
# durability, drive a Zipf-skewed load, and hold the docs/BATCHING.md
# §Adaptive write path contract end to end: every receipt verifies
# offline, K moves up from -batch-min under pressure, identical
# documents coalesce (dedup_total > 0), the WAL fsync rate stays far
# under the signed-request rate, and a SIGTERM + restart on the same
# state dir keeps counters strictly monotonic.
set -eu

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"; [ -n "${pid_srv:-}" ] && kill "$pid_srv" 2>/dev/null || true' EXIT

go build -race -o "$tmp/komodo-serve" ./cmd/komodo-serve
go build -o "$tmp/komodo-load" ./cmd/komodo-load
go build -o "$tmp/komodo-verify" ./cmd/komodo-verify

# json_field <field> <file>: first integer value of "field" in a JSON file.
json_field() {
    grep -o "\"$1\": *[0-9]*" "$2" | grep -o '[0-9]*$' | head -n 1
}

start_server() {
    rm -f "$tmp/addr"
    "$tmp/komodo-serve" -addr 127.0.0.1:0 -addr-file "$tmp/addr" -workers 1 -seed 42 \
        -state-dir "$tmp/state" \
        -batch 16 -batch-min 2 -batch-window 25ms -batch-dedup -group-commit \
        >>"$tmp/serve.log" 2>&1 &
    pid_srv=$!
    i=0
    while [ ! -s "$tmp/addr" ]; do
        i=$((i + 1))
        [ "$i" -gt 150 ] || { sleep 0.2; continue; }
        echo "writepath-smoke: server did not come up" >&2
        exit 1
    done
    url="http://$(cat "$tmp/addr")"
}

start_server
echo "writepath-smoke: server at $url (race-built, 1 worker, adaptive K=2..16, dedup, group commit)"

# Phase 1: one receipt end to end through the CLI verifier, and it must
# fail closed against a foreign document.
head -c 300 /dev/urandom >"$tmp/doc.bin"
curl -sf --data-binary @"$tmp/doc.bin" "$url/v1/notary/sign" >"$tmp/receipt.json"
"$tmp/komodo-verify" -receipt "$tmp/receipt.json" -doc "$tmp/doc.bin" \
    || { echo "writepath-smoke: saved receipt did not verify offline" >&2; exit 1; }
head -c 300 /dev/urandom >"$tmp/other.bin"
if "$tmp/komodo-verify" -receipt "$tmp/receipt.json" -doc "$tmp/other.bin" 2>/dev/null; then
    echo "writepath-smoke: FAIL: receipt verified against a foreign document" >&2
    exit 1
fi
echo "writepath-smoke: offline receipt verification OK (fails closed on a foreign doc)"

# Phase 2: skewed load with in-client receipt verification. Sample
# /v1/stats mid-load so the adaptive K reading reflects live pressure,
# not the post-drain taper.
"$tmp/komodo-load" -url "$url" -endpoint notary -clients 48 -duration 6s \
    -verify -zipf 1.2 -zipf-docs 64 -respect-retry-after -json >"$tmp/run.json" &
pid_load=$!
sleep 4
curl -sf "$url/v1/stats" >"$tmp/stats_live.json"
wait "$pid_load" || { echo "writepath-smoke: load run failed" >&2; exit 1; }
curl -sf "$url/v1/stats" >"$tmp/stats.json"

ok=$(json_field ok "$tmp/run.json")
receipts=$(json_field receipts_verified "$tmp/run.json")
dups=$(json_field counter_dups "$tmp/run.json")
coalesced=$(json_field coalesced_receipts "$tmp/run.json"); coalesced=${coalesced:-0}
max1=$(json_field counter_max "$tmp/run.json")

[ "$ok" -ge 100 ] || { echo "writepath-smoke: only $ok signs succeeded" >&2; exit 1; }
[ "$receipts" = "$ok" ] || { echo "writepath-smoke: $receipts receipts verified for $ok signs" >&2; exit 1; }
[ "$dups" = 0 ] || { echo "writepath-smoke: $dups duplicated counter ticks" >&2; exit 1; }
[ "$coalesced" -ge 1 ] || { echo "writepath-smoke: no coalesced receipts under Zipf skew" >&2; exit 1; }
echo "writepath-smoke: $ok signs, $receipts receipts verified ($coalesced rode a shared leaf), 0 dups"

# Phase 3: the adaptive write path moved. K must have grown above
# -batch-min under live pressure, dedup must have coalesced, and the
# fsync rate must be far below the signed-request rate (batching plus
# group commit: several signs per WAL sync).
k_live=$(json_field k_current "$tmp/stats_live.json")
dedup=$(json_field dedup_total "$tmp/stats.json")
appends=$(json_field appends "$tmp/stats.json")
fsyncs=$(json_field fsyncs "$tmp/stats.json")
batches=$(json_field batches "$tmp/stats.json")

[ "$k_live" -gt 2 ] || { echo "writepath-smoke: K=$k_live never moved above -batch-min under load" >&2; exit 1; }
[ "$dedup" -ge 1 ] || { echo "writepath-smoke: dedup_total=$dedup with identical docs in flight" >&2; exit 1; }
[ "$fsyncs" -le "$appends" ] || { echo "writepath-smoke: fsyncs=$fsyncs > appends=$appends" >&2; exit 1; }
[ $((fsyncs * 4)) -le "$ok" ] || { echo "writepath-smoke: fsyncs=$fsyncs for $ok signs — write path not amortising" >&2; exit 1; }
echo "writepath-smoke: K=$k_live (min 2, max 16) under load, dedup_total=$dedup, fsyncs=$fsyncs for $ok signs across $batches batches"

# Phase 4: the metric surface carries the new families.
curl -sf "$url/metrics" >"$tmp/metrics.txt"
for fam in komodo_batch_k_current komodo_batch_dedup_total komodo_store_fsyncs_total komodo_store_group_size; do
    grep -q "^$fam" "$tmp/metrics.txt" || { echo "writepath-smoke: /metrics missing $fam" >&2; exit 1; }
done
echo "writepath-smoke: /metrics exposes k_current, dedup_total, fsyncs_total, group_size"

# Phase 5: SIGTERM, restart on the same state dir, counters strictly
# monotonic — group commit must not have acked anything it didn't sync.
kill -TERM "$pid_srv"
wait "$pid_srv" || { echo "writepath-smoke: server exited uncleanly after SIGTERM (race detector?)" >&2; exit 1; }
pid_srv=
start_server
"$tmp/komodo-load" -url "$url" -endpoint notary -clients 1 -requests 5 -verify -json >"$tmp/run2.json"
min2=$(json_field counter_min "$tmp/run2.json")
dups2=$(json_field counter_dups "$tmp/run2.json")
[ -n "$min2" ] || { echo "writepath-smoke: no counters after restart" >&2; exit 1; }
[ "$dups2" = 0 ] || { echo "writepath-smoke: duplicated ticks after restart" >&2; exit 1; }
if [ "$min2" -le "$max1" ]; then
    echo "writepath-smoke: FAIL: counter $min2 after restart <= $max1 before (replayed a counter)" >&2
    exit 1
fi
echo "writepath-smoke: counters resume at $min2, strictly past $max1"

kill -TERM "$pid_srv"
wait "$pid_srv" || { echo "writepath-smoke: server exited uncleanly after SIGTERM" >&2; exit 1; }
pid_srv=
echo "writepath-smoke: OK (adaptive K, dedup, group commit, offline receipts, monotonic counters across restart)"
