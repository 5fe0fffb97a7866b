#!/usr/bin/env bash
# End-to-end serving smoke over rsmi_cli: build a sharded<4>:rsmi index
# file, start `rsmi_cli serve` on an ephemeral port, drive it with
# `rsmi_cli loadgen`, scrape the kStats op and reconcile the server-side
# counters against what loadgen sent (admitted == sent, zero deadline
# overruns), check that a low-rate stream is not stalled by delayed
# ACKs (median under 10 ms), probe correctness by comparing a remote
# point lookup against the same lookup on a locally loaded copy, and
# check graceful shutdown (SIGTERM -> drain -> exit 0). Registered with
# ctest (label "serve") so it runs in the Release AND Debug CI legs;
# the loadgen and stats JSON land in OUT_DIR, which CI uploads as
# artifacts and records (non-gating) via check_bench_regression.py
# --serve.
#
# Usage: serve_smoke.sh RSMI_CLI OUT_DIR
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 RSMI_CLI OUT_DIR" >&2
  exit 2
fi
cli="$1"
out_dir="$2"
mkdir -p "$out_dir"
data="$out_dir/points.csv"
idx="$out_dir/sharded4_rsmi.idx"
port_file="$out_dir/port"
server_log="$out_dir/server.log"

fail() { echo "FAIL: $1" >&2; exit 1; }

server_pid=""
cleanup() {
  if [[ -n "$server_pid" ]] && kill -0 "$server_pid" 2>/dev/null; then
    kill -KILL "$server_pid" 2>/dev/null || true
  fi
}
trap cleanup EXIT

"$cli" generate --n=3000 --dist=skewed --seed=7 --out="$data"
"$cli" build --data="$data" --index="$idx" \
  --shards=4 --shard-inner=rsmi --block=20 --threshold=400 --epochs=40 \
  --build-threads=2 > "$out_dir/build.txt"

rm -f "$port_file"
"$cli" serve --load="$idx" --port=0 --threads=2 --slow-query-us=1 \
  --port-file="$port_file" 2> "$server_log" &
server_pid=$!

# The server writes the actual port once it is listening.
for _ in $(seq 1 100); do
  [[ -s "$port_file" ]] && break
  kill -0 "$server_pid" 2>/dev/null || fail "server died during startup"
  sleep 0.1
done
[[ -s "$port_file" ]] || fail "server never wrote its port file"
port="$(cat "$port_file")"

# Sustained mixed traffic at a target QPS with a 10% buffered-write mix
# (exercising the epoch/delta update path under the readers); the report
# is the CI artifact. Zero failed reads is part of the contract: every
# read replays a point the generator knows is present (base data or its
# own already-acknowledged insert). Runs before any other remote request
# so the kStats reconciliation below can demand admitted == sent.
"$cli" loadgen --data="$data" --port="$port" --qps=2000 --duration=2 \
  --connections=4 --write-frac=0.1 --out="$out_dir/loadgen.json" > /dev/null
grep -q '"p999_us"' "$out_dir/loadgen.json" \
  || fail "loadgen report is missing percentiles"
grep -q '"received": 0,' "$out_dir/loadgen.json" \
  && fail "loadgen received no responses"
grep -q '"errors": 0,' "$out_dir/loadgen.json" \
  || fail "loadgen saw error responses"
grep -q '"write_ops": 0,' "$out_dir/loadgen.json" \
  && fail "loadgen sent no writes despite --write-frac=0.1"
grep -q '"failed_reads": 0,' "$out_dir/loadgen.json" \
  || fail "loadgen saw failed reads under the write mix"
grep -q '"server": {' "$out_dir/loadgen.json" \
  || fail "loadgen report is missing the server-side kStats fields"

# Server-side reconciliation over the kStats wire op: every request
# loadgen sent was admitted (the scrapes themselves ride the
# control-plane counter), none overran a deadline (loadgen sets no
# deadline), and the slow-query log captured something at the 1us
# threshold. The JSON scrape is the second CI artifact; the Prometheus
# scrape checks the text exposition end-to-end.
"$cli" stats --server="127.0.0.1:$port" --slow=8 > "$out_dir/stats.json"
"$cli" stats --server="127.0.0.1:$port" --format=prom > "$out_dir/stats.prom"
sent="$(sed -n 's/.*"sent": \([0-9]*\).*/\1/p' "$out_dir/loadgen.json")"
admitted="$(sed -n 's/.*"server\.requests_admitted": \([0-9]*\).*/\1/p' \
  "$out_dir/stats.json")"
overruns="$(sed -n 's/.*"server\.deadline_exceeded": \([0-9]*\).*/\1/p' \
  "$out_dir/stats.json")"
[[ -n "$sent" && -n "$admitted" ]] \
  || fail "could not extract sent/admitted counters"
[[ "$admitted" == "$sent" ]] \
  || fail "kStats admitted=$admitted does not reconcile with loadgen sent=$sent"
[[ "$overruns" == "0" ]] \
  || fail "kStats reports $overruns deadline overruns (expected 0)"
grep -q '"slow_queries": \[' "$out_dir/stats.json" \
  || fail "stats scrape is missing the slow-query log"
grep -q '^server_requests_admitted ' "$out_dir/stats.prom" \
  || fail "prometheus exposition is missing server_requests_admitted"

# Latency at a low rate: one connection, requests ~33 ms apart. That is
# inside the ~40 ms delayed-ACK window, so the client stays in
# delayed-ACK mode and ACKs a reply's first segment only with its next
# request. A reply split over two writes with Nagle on waits for that
# ACK (median ~33 ms); one segment per frame answers in well under a
# millisecond. (At 20/s, 50 ms apart, Linux puts the client back in
# quick-ACK mode between requests and the stall does not show.)
"$cli" loadgen --data="$data" --port="$port" --qps=30 --duration=2 \
  --connections=1 --out="$out_dir/loadgen_slow.json" > /dev/null
slow_p50="$(sed -n 's/.*"p50_us": \([0-9]*\).*/\1/p' \
  "$out_dir/loadgen_slow.json")"
[[ -n "$slow_p50" ]] || fail "could not extract p50_us of the low-rate run"
(( slow_p50 < 10000 )) \
  || fail "low-rate p50_us=$slow_p50 (>= 10000): replies wait for delayed ACKs"

# Correctness probe: a stored coordinate (printed at %.17g, which
# round-trips the double exactly) must come back identically from the
# serving process and from a direct load of the same file.
"$cli" window --index="$idx" --rect=0,0,1,1 2>/dev/null > "$out_dir/window.txt"
first="$(head -1 "$out_dir/window.txt")"
x="${first%,*}"
y="${first#*,}"
"$cli" point --index="$idx" --x="$x" --y="$y" > "$out_dir/point_local.txt"
"$cli" point --server="127.0.0.1:$port" --x="$x" --y="$y" \
  > "$out_dir/point_remote.txt"
grep -q 'id=' "$out_dir/point_local.txt" \
  || fail "local point lookup found nothing"
diff "$out_dir/point_local.txt" "$out_dir/point_remote.txt" \
  || fail "remote point lookup differs from the direct one"

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$server_pid"
rc=0
wait "$server_pid" || rc=$?
server_pid=""
[[ "$rc" -eq 0 ]] || fail "server exited $rc on SIGTERM (log: $(cat "$server_log"))"
grep -q 'shutting down' "$server_log" \
  || fail "server log is missing the graceful-shutdown line"

echo "PASS: served $idx, loadgen + kStats reconciliation + remote probe OK, graceful shutdown ($out_dir/loadgen.json, $out_dir/stats.json)"
