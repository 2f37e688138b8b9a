#!/bin/sh
# Gateway smoke test: boot two komodo-serve backends behind komodo-gateway
# (all binaries race-instrumented), verify quotes fetched through the
# gateway, drive sharded notary load, kill one backend mid-load and require
# zero non-retryable client errors and zero duplicated counters across the
# failover, then restart the dead backend, live-migrate the survivor's
# sealed notary state onto it, and require the migrated counter stream to
# continue strictly past the pulled checkpoint — the docs/GATEWAY.md
# contract, end to end through real processes and a real kill.
set -eu

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"; for p in "${pid_a:-}" "${pid_b:-}" "${pid_gw:-}"; do [ -n "$p" ] && kill "$p" 2>/dev/null || true; done' EXIT

go build -race -o "$tmp/komodo-serve" ./cmd/komodo-serve
go build -race -o "$tmp/komodo-gateway" ./cmd/komodo-gateway
go build -o "$tmp/komodo-load" ./cmd/komodo-load

wait_file() { # wait_file <file> <what>
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        [ "$i" -gt 150 ] || { sleep 0.2; continue; }
        echo "gateway-smoke: $2 did not come up" >&2
        exit 1
    done
}

# json_field <field> <file>: first integer value of "field" in a JSON file
# (works on both indented and compact encodings).
json_field() {
    grep -o "\"$1\": *[0-9]*" "$2" | grep -o '[0-9]*$' | head -n 1
}

start_backend() { # start_backend <name> [addr]  (addr: rebind a fixed address on restart)
    rm -f "$tmp/addr_$1"
    "$tmp/komodo-serve" -addr "${2:-127.0.0.1:0}" -workers 1 -seed 42 \
        -state-dir "$tmp/state_$1" -addr-file "$tmp/addr_$1" >>"$tmp/log_$1.txt" 2>&1 &
    eval "pid_$1=$!"
    wait_file "$tmp/addr_$1" "backend $1"
}

start_backend a
start_backend b
addr_a=$(cat "$tmp/addr_a")
addr_b=$(cat "$tmp/addr_b")
echo "gateway-smoke: backends a=$addr_a b=$addr_b"

rm -f "$tmp/addr_gw"
"$tmp/komodo-gateway" -addr 127.0.0.1:0 -addr-file "$tmp/addr_gw" \
    -backends "a=$addr_a,b=$addr_b" \
    -probe-interval 200ms -down-after 2 -up-after 2 >"$tmp/log_gw.txt" 2>&1 &
pid_gw=$!
wait_file "$tmp/addr_gw" "gateway"
gw="http://$(cat "$tmp/addr_gw")"
echo "gateway-smoke: gateway at $gw"

# Phase 0: the gateway's own flight recorder. Nothing else has crossed the
# gateway yet, so a request sent with a known W3C traceparent must be
# retained under that trace id: listed by ?min_ms=0 and returned by ?id=.
tid=4bf92f3577b34da6a3ce929d0e0e4736
curl -sf -H "traceparent: 00-$tid-00f067aa0ba902b7-01" "$gw/v1/admin/backends" >/dev/null
for q in "min_ms=0" "id=$tid"; do
    curl -sf "$gw/v1/debug/traces?$q" | grep -q "\"trace_id\": *\"$tid\"" \
        || { echo "gateway-smoke: /v1/debug/traces?$q misses trace $tid" >&2; exit 1; }
done
echo "gateway-smoke: gateway flight recorder serves trace $tid by ?min_ms= and ?id="

# Phase 1: attestation through the gateway. -verify recomputes the
# nonce->data derivation and checks every quote against the quote key —
# itself fetched through the gateway — so this proves the proxy preserves
# nonce freshness and adds nothing the verifier must trust.
"$tmp/komodo-load" -targets "$gw" -endpoint attest -clients 2 -requests 8 -verify -json >"$tmp/attest.json"
verified=$(json_field verified "$tmp/attest.json")
[ "$verified" -ge 8 ] || { echo "gateway-smoke: only $verified quotes verified via gateway" >&2; exit 1; }
echo "gateway-smoke: $verified quotes verified through the gateway"

# Phase 2: sharded notary load across both backends.
"$tmp/komodo-load" -targets "$gw" -endpoint notary -clients 4 -shards 4 -requests 40 -json >"$tmp/run1.json"
dups1=$(json_field counter_dups "$tmp/run1.json")
[ "$dups1" = 0 ] || { echo "gateway-smoke: $dups1 duplicated counters in steady state" >&2; exit 1; }
echo "gateway-smoke: sharded signing OK (counters $(json_field counter_min "$tmp/run1.json")..$(json_field counter_max "$tmp/run1.json"), 0 dups)"

# Phase 3: kill backend a mid-load. The gateway must fail its shards over
# to b with zero non-retryable client errors and no counter reuse.
"$tmp/komodo-load" -targets "$gw" -endpoint notary -clients 4 -shards 4 -duration 6s -json >"$tmp/run2.json" &
load_pid=$!
sleep 1.5
kill -TERM "$pid_a"
wait "$pid_a" || { echo "gateway-smoke: backend a exited uncleanly after SIGTERM" >&2; exit 1; }
pid_a=
echo "gateway-smoke: backend a killed mid-load"
wait "$load_pid" || { echo "gateway-smoke: load run failed across the kill" >&2; exit 1; }
errors=$(json_field errors "$tmp/run2.json")
dups2=$(json_field counter_dups "$tmp/run2.json")
[ "$errors" = 0 ] || { echo "gateway-smoke: $errors non-retryable client errors across failover" >&2; exit 1; }
[ "$dups2" = 0 ] || { echo "gateway-smoke: $dups2 duplicated counters across failover" >&2; exit 1; }
echo "gateway-smoke: failover clean (0 errors, 0 dups)"

curl -sf "$gw/metrics" >"$tmp/metrics.txt"
failovers=$(grep '^komodo_gateway_failovers_total' "$tmp/metrics.txt" | grep -o '[0-9.]*$')
[ "${failovers%.*}" -ge 1 ] || { echo "gateway-smoke: failovers_total is $failovers, expected >= 1" >&2; exit 1; }
grep -q 'komodo_gateway_backend_up{backend="a"} 0' "$tmp/metrics.txt" \
    || { echo "gateway-smoke: dead backend a not marked down in /metrics" >&2; exit 1; }

# Phase 4: restart a on the SAME address (the gateway's backend URL is
# fixed; same state dir, so its own counters recover), wait for the
# prober to promote it, then live-migrate b's shards + sealed notary
# state onto a.
start_backend a "$addr_a"
i=0
until [ "$(curl -sf "$gw/v1/admin/backends" | grep -o '"state":"up"' | wc -l)" -eq 2 ]; do
    i=$((i + 1))
    [ "$i" -le 50 ] || { echo "gateway-smoke: backend a never promoted after restart" >&2; exit 1; }
    sleep 0.2
done
echo "gateway-smoke: backend a restarted and promoted"

curl -sf -X POST "$gw/v1/admin/migrate?from=b&to=a&drain=1" >"$tmp/migrate.json"
pulled=$(json_field counter "$tmp/migrate.json")
[ -n "$pulled" ] && [ "$pulled" -gt 0 ] || { echo "gateway-smoke: migration pulled no counter: $(cat "$tmp/migrate.json")" >&2; exit 1; }
echo "gateway-smoke: migrated b -> a at counter $pulled"

# Phase 5: keep signing. Every shard now lands on a, whose restored
# notary must continue b's stream strictly past the pulled checkpoint.
"$tmp/komodo-load" -targets "$gw" -endpoint notary -clients 4 -shards 4 -requests 20 -json >"$tmp/run3.json"
min3=$(json_field counter_min "$tmp/run3.json")
dups3=$(json_field counter_dups "$tmp/run3.json")
[ "$dups3" = 0 ] || { echo "gateway-smoke: $dups3 duplicated counters after migration" >&2; exit 1; }
[ "$min3" -gt "$pulled" ] || { echo "gateway-smoke: FAIL: counter $min3 after migration <= pulled $pulled (lineage spliced)" >&2; exit 1; }
echo "gateway-smoke: post-migration counters $min3..$(json_field counter_max "$tmp/run3.json"), strictly past $pulled, 0 dups"

# Phase 6: the fleet view exposes per-backend rejection counters and the
# merged telemetry, and the migration shows up in the gateway metrics.
curl -sf "$gw/v1/stats" >"$tmp/stats.json"
grep -q '"rejected_by_backend"' "$tmp/stats.json" || { echo "gateway-smoke: fleet stats missing rejected_by_backend" >&2; exit 1; }
grep -q '"telemetry"' "$tmp/stats.json" || { echo "gateway-smoke: fleet stats missing merged telemetry" >&2; exit 1; }
curl -sf "$gw/metrics" | grep -q 'komodo_gateway_migrations_total 1' \
    || { echo "gateway-smoke: migrations_total != 1 in /metrics" >&2; exit 1; }

kill -TERM "$pid_gw"
wait "$pid_gw" || { echo "gateway-smoke: gateway exited uncleanly after SIGTERM" >&2; exit 1; }
pid_gw=
kill -TERM "$pid_a" "$pid_b"
wait "$pid_a" "$pid_b" || { echo "gateway-smoke: a backend exited uncleanly at shutdown" >&2; exit 1; }
pid_a=
pid_b=
echo "gateway-smoke: OK (failover clean, migration monotonic, fleet stats merged)"
