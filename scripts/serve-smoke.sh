#!/usr/bin/env bash
# serve-smoke: end-to-end smoke test of cmd/gpssn-serve, run by CI.
#
# Builds the binaries, generates a small dataset, starts the server,
# checks /healthz and one query over real HTTP, then sends SIGTERM and
# asserts a clean graceful-drain exit. Everything deeper (coalescing,
# shedding, error mapping, drain races) is covered by the -race unit
# tests in internal/serve; this script proves the shipped binary wires
# it all together.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== build"
go build -o "$workdir" ./cmd/gpssn-gen ./cmd/gpssn-serve

echo "== generate dataset"
"$workdir/gpssn-gen" -kind uni -out "$workdir/smoke.gpssn" \
    -vertices 1500 -users 1500 -pois 500 -seed 1

echo "== start server"
addr=127.0.0.1:18080
"$workdir/gpssn-serve" -data "$workdir/smoke.gpssn" -addr "$addr" \
    -max-inflight 16 -default-timeout 5s &
server=$!

# Wait for readiness: /healthz must answer 200 with status "ok".
for i in $(seq 1 100); do
    if health=$(curl -sf "http://$addr/healthz" 2>/dev/null); then
        break
    fi
    if ! kill -0 "$server" 2>/dev/null; then
        echo "server exited before becoming healthy" >&2
        exit 1
    fi
    sleep 0.2
done
echo "healthz: $health"
echo "$health" | grep -q '"status":"ok"'

echo "== query"
answer=$(curl -sf -d '{"user":42,"group_size":3,"gamma":0.3,"theta":0.3,"radius":2}' \
    "http://$addr/v1/query")
echo "query: $answer"
echo "$answer" | grep -q '"found":true'

echo "== topk"
topk=$(curl -sf -d '{"user":42,"group_size":3,"gamma":0.3,"theta":0.3,"radius":2,"k":2}' \
    "http://$addr/v1/topk")
echo "$topk" | grep -q '"answers":'

echo "== answer cache is live"
# Repeat the first query: the answer cache must serve it, and /statsz
# must count the hit.
curl -sf -o /dev/null -d '{"user":42,"group_size":3,"gamma":0.3,"theta":0.3,"radius":2}' \
    "http://$addr/v1/query"
statsz=$(curl -sf "http://$addr/statsz")
echo "statsz: $statsz"
hits=$(echo "$statsz" | sed -n 's/.*"cache_hits_total":\([0-9]*\).*/\1/p')
if [ "${hits:-0}" -eq 0 ]; then
    echo "repeated query missed the answer cache (cache_hits_total=${hits:-missing})" >&2
    exit 1
fi
echo "cache hits: $hits"

echo "== invalid input is 400"
code=$(curl -s -o /dev/null -w '%{http_code}' -d '{"user":42,"bogus":1}' \
    "http://$addr/v1/query")
[ "$code" = 400 ] || { echo "want 400 for unknown field, got $code" >&2; exit 1; }

echo "== graceful shutdown"
kill -TERM "$server"
if ! wait "$server"; then
    echo "server exited non-zero on SIGTERM" >&2
    exit 1
fi

echo "serve-smoke: OK"
