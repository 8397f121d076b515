#!/bin/sh
# dist_smoke.sh — the distributed-serving end-to-end gate: compile a
# 3-shard view with cqcli, serve it twice — one single cqserve node as the
# reference, and a cqcoord coordinator fanning out to three cqserve -join
# workers — and require the raw response bodies to be byte-identical
# between the two tiers in both stream encodings, for routed bound-key
# lookups and a scattered free enumeration alike. The coordinator runs
# with the result cache enabled (-cache-bytes), and the identity sweep
# runs twice back-to-back so the second pass replays cache hits — still
# byte-identical. Then rebalance a shard with POST /v1/move and
# re-verify: the swap must not change a single byte, and the move must
# have invalidated the stale cached generation. Mirrors the CI
# "dist-smoke" job; run locally via `make dist-smoke`.
set -eu

COORD="${CQCOORD_ADDR:-127.0.0.1:18970}"
SINGLE="${CQSERVE_ADDR:-127.0.0.1:18971}"
W1="127.0.0.1:18981"
W2="127.0.0.1:18982"
W3="127.0.0.1:18983"
TMP="$(mktemp -d)"
PIDS=""
cleanup() {
    for pid in $PIDS; do
        kill "$pid" 2>/dev/null || true
    done
    for pid in $PIDS; do
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

# A co-author-shaped relation big enough that every shard owns some keys.
awk 'BEGIN { for (a = 1; a <= 40; a++) for (p = 0; p < 6; p++) print a "," (a + p * 7) % 53 }' > "$TMP/r.csv"

echo "== building cqcli, cqserve, cqcoord, cqload"
go build -o "$TMP/cqcli" ./cmd/cqcli
go build -o "$TMP/cqserve" ./cmd/cqserve
go build -o "$TMP/cqcoord" ./cmd/cqcoord
go build -o "$TMP/cqload" ./cmd/cqload

VIEW='V[bff](x, y, p) :- R(x, p), R(y, p)'
echo "== compiling 3-shard snapshot"
"$TMP/cqcli" compile -view "$VIEW" -shards 3 -rel "R=$TMP/r.csv" -o "$TMP/v.cqs"

echo "== starting the single-node reference on $SINGLE"
"$TMP/cqserve" -snapshot "$TMP/v.cqs" -addr "$SINGLE" &
PIDS="$PIDS $!"

echo "== starting cqcoord on $COORD (8 MiB result cache) and three joining workers"
"$TMP/cqcoord" -snapshot "$TMP/v.cqs" -addr "$COORD" -spool "$TMP/spool" -cache-bytes 8388608 &
PIDS="$PIDS $!"
for w in "$W1" "$W2" "$W3"; do
    "$TMP/cqserve" -join "http://$COORD" -addr "$w" -spool "$TMP/spool-$w" &
    PIDS="$PIDS $!"
done

# Readiness: the coordinator reports ready once every shard of every view
# has an owner, but a worker opens its own gate only after its join call
# returns, which can be later. So one bounded loop polls the coordinator,
# the single node and every worker until all report ready.
ready=""
for _ in $(seq 1 150); do
    ready=1
    for addr in "$COORD" "$SINGLE" "$W1" "$W2" "$W3"; do
        curl -sf "http://$addr/readyz" 2>/dev/null | grep -q '"ready":true' || { ready=""; break; }
    done
    [ -n "$ready" ] && break
    sleep 0.1
done
if [ -z "$ready" ]; then
    for addr in "$COORD" "$SINGLE" "$W1" "$W2" "$W3"; do
        curl -sf "http://$addr/readyz" 2>/dev/null | grep -q '"ready":true' || {
            echo "$addr not ready" >&2
            curl -s "http://$addr/readyz" >&2 || true
        }
    done
    exit 1
fi
curl -sf "http://$COORD/healthz" > /dev/null || { echo "coordinator /healthz not 200" >&2; exit 1; }

# verify_identity LABEL: every routed bound-key lookup (including a miss)
# and the free enumeration must stream byte-identically from both tiers in
# both encodings. cmp, not diff: framing bytes count too.
verify_identity() {
    for x in $(seq 1 12) 9999; do
        for accept in application/x-ndjson application/x-cqrep-binary; do
            curl -sf -H "Accept: $accept" -X POST "http://$SINGLE/v1/query/V" \
                -d "{\"bindings\":{\"x\":$x}}" > "$TMP/want.bin"
            curl -sf -H "Accept: $accept" -X POST "http://$COORD/v1/query/V" \
                -d "{\"bindings\":{\"x\":$x}}" > "$TMP/got.bin"
            cmp "$TMP/want.bin" "$TMP/got.bin" || {
                echo "$1: x=$x ($accept): coordinator bytes diverge from single node" >&2
                exit 1
            }
        done
    done
    echo "   $1: 13 bindings x 2 encodings byte-identical"
}

echo "== byte identity: coordinator vs single node"
verify_identity "initial assignment"
# Second pass over the same bindings: these are now cache hits on the
# coordinator, and the replayed bytes must still match the single node.
verify_identity "cached replay"

echo "== load generator against the coordinator (with per-worker breakdown)"
seq 1 12 > "$TMP/req.txt"
"$TMP/cqload" -url "http://$COORD" -coord -view V -bindings "$TMP/req.txt" -c 2 -n 60 | tee "$TMP/load.out"
grep -q '^per-worker' "$TMP/load.out" || { echo "cqload -coord printed no per-worker breakdown" >&2; exit 1; }

echo "== rebalance: move shard 0 of V to a different worker and re-verify"
curl -sf "http://$COORD/v1/map" > "$TMP/map.json"
owner0=$(sed 's/.*"V":\["\([^"]*\)".*/\1/' "$TMP/map.json")
target=""
for cand in "http://$W1" "http://$W2" "http://$W3"; do
    [ "$cand" = "$owner0" ] || { target="$cand"; break; }
done
[ -n "$target" ] || { echo "could not pick a move target (owner0=$owner0)" >&2; cat "$TMP/map.json" >&2; exit 1; }
curl -sf -X POST "http://$COORD/v1/move" \
    -d "{\"view\":\"V\",\"shard\":0,\"worker\":\"$target\"}" > /dev/null
curl -sf "http://$COORD/v1/map" | grep -q "\"V\":\[\"$target\"" || {
    echo "map does not show $target owning V shard 0 after the move" >&2; exit 1
}
verify_identity "after rebalance"

echo "== coordinator stats carry the per-worker breakdown"
curl -sf "http://$COORD/v1/stats" > "$TMP/stats.json"
grep -q '"workers":\[{' "$TMP/stats.json" || { echo "/v1/stats has no workers section" >&2; exit 1; }

echo "== coordinator cache counters: hits from the replay pass, invalidation from the move"
grep -q '"cache"' "$TMP/stats.json" || { echo "/v1/stats has no cache section" >&2; cat "$TMP/stats.json" >&2; exit 1; }
hits=$(sed -n 's/.*"cache":{[^}]*"hits":\([0-9]*\).*/\1/p' "$TMP/stats.json")
[ -n "$hits" ] && [ "$hits" -gt 0 ] || { echo "coordinator cache hits counter is '$hits', want > 0" >&2; cat "$TMP/stats.json" >&2; exit 1; }
inval=$(sed -n 's/.*"cache":{[^}]*"invalidated":\([0-9]*\).*/\1/p' "$TMP/stats.json")
[ -n "$inval" ] && [ "$inval" -gt 0 ] || { echo "coordinator cache invalidated counter is '$inval', want > 0 after the move" >&2; cat "$TMP/stats.json" >&2; exit 1; }

echo "dist smoke: OK"
