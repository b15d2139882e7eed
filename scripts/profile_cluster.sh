#!/bin/sh
# profile-cluster: capture a CPU profile of kvproxy while kvload drives
# it — the profile that motivated (and now verifies) the zero-alloc,
# goroutine-free fast path. Three backends at R=2, a read-heavy zipfian
# load, and a 10s pprof capture in the middle of it.
#
#	make profile-cluster
#	go tool pprof bin/kvproxy "$PROF"
#
# Invoked by `make profile-cluster`, which builds bin/ first.
set -eu

BIN=${BIN:-bin}
TMP=${TMPDIR:-/tmp}
PROF=${PROF:-$TMP/kvproxy_cpu.pprof}
SECONDS_CPU=${SECONDS_CPU:-10}
PROXY=127.0.0.1:7410
PPROF=127.0.0.1:7411
CONNS=${CONNS:-8}

PIDS=
PROXY_PID=
LOAD_PID=
cleanup() {
	[ -n "$LOAD_PID" ] && kill "$LOAD_PID" 2>/dev/null || true
	[ -n "$PROXY_PID" ] && kill "$PROXY_PID" 2>/dev/null || true
	for p in $PIDS; do kill "$p" 2>/dev/null || true; done
}
trap cleanup EXIT

bi=0
ADDRS=
for s in orcgc hp ebr; do
	bi=$((bi + 1))
	a="127.0.0.1:$((7410 + bi + 1))"
	"$BIN"/kvserver -addr "$a" -reclaim "$s" >"$TMP/pc_s$bi.log" 2>&1 &
	PIDS="$PIDS $!"
	ADDRS="${ADDRS:+$ADDRS,}$a"
done
sleep 1

"$BIN"/kvproxy -addr "$PROXY" -backends "$ADDRS" -replicas 2 \
	-metrics "$PPROF" -pprof >"$TMP/pc_proxy.log" 2>&1 &
PROXY_PID=$!
sleep 1

# Load outlives the capture window on both sides so the profile sees
# only steady state.
"$BIN"/kvload -addr "$PROXY" -conns "$CONNS" -duration $((SECONDS_CPU + 6))s \
	-warmup 1s -dist zipfian -theta 0.99 -keys 50000 \
	-mix 'get=90,put=9,del=1' >"$TMP/pc_load.log" 2>&1 &
LOAD_PID=$!
sleep 2

curl -fsS -o "$PROF" "http://$PPROF/debug/pprof/profile?seconds=$SECONDS_CPU"

wait "$LOAD_PID"
LOAD_PID=
cat "$TMP/pc_load.log"
kill -INT "$PROXY_PID"
wait "$PROXY_PID" || true
PROXY_PID=
for p in $PIDS; do
	kill -INT "$p" 2>/dev/null || true
	wait "$p" || true
done
PIDS=

echo "profile-cluster: wrote $PROF"
echo "profile-cluster: inspect with: go tool pprof $BIN/kvproxy $PROF"
