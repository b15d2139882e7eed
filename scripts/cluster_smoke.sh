#!/bin/sh
# cluster-smoke: three race-built kvserver backends on distinct
# reclamation schemes (orcgc, hp, ebr) behind a race-built kvproxy at
# R=2. Mid-run one backend is kill -9'd and later restarted empty on
# the same address; the proxy must mask the outage (kvload finishes
# with 0 errs), resync the rejoiner, report every per-backend inflight
# gauge back at 0 after the drain, and every backend — including the
# restarted one — must pass its leak verdict on SIGINT.
#
# Invoked by `make cluster-smoke`, which builds bin/ first.
set -eu

BIN=${BIN:-bin}
A1=127.0.0.1:7301
A2=127.0.0.1:7302
A3=127.0.0.1:7303
PROXY=127.0.0.1:7300
PMET=127.0.0.1:7304
TMP=${TMPDIR:-/tmp}

S1=; S2=; S3=; PP=; CHAOS=
cleanup() {
	# Best-effort teardown of anything the failure path left running.
	for p in $S1 $S3 $PP $CHAOS; do
		[ -n "$p" ] && kill "$p" 2>/dev/null || true
	done
	[ -f "$TMP/cs_s2.pid" ] && kill "$(cat "$TMP/cs_s2.pid")" 2>/dev/null || true
	kill "$S2" 2>/dev/null || true
}
trap cleanup EXIT

"$BIN"/kvserver -addr "$A1" -reclaim orcgc >"$TMP/cs_s1.log" 2>&1 & S1=$!
"$BIN"/kvserver -addr "$A2" -reclaim hp    >"$TMP/cs_s2.log" 2>&1 & S2=$!
"$BIN"/kvserver -addr "$A3" -reclaim ebr   >"$TMP/cs_s3.log" 2>&1 & S3=$!
sleep 1
"$BIN"/kvproxy -addr "$PROXY" -backends "$A1,$A2,$A3" -replicas 2 \
	-metrics "$PMET" >"$TMP/cs_proxy.log" 2>&1 & PP=$!
sleep 1

# Chaos: 2s into the load, SIGKILL the hp backend; 2s later restart it
# with a fresh empty store on the same address. The subshell waits on
# the restarted server so `wait $CHAOS` later surfaces its leak-verdict
# exit status.
rm -f "$TMP/cs_s2.pid"
(
	sleep 2
	kill -9 "$S2" 2>/dev/null || true
	sleep 2
	"$BIN"/kvserver -addr "$A2" -reclaim hp >"$TMP/cs_s2b.log" 2>&1 &
	echo $! >"$TMP/cs_s2.pid"
	wait $!
) & CHAOS=$!

"$BIN"/kvload -addr "$PROXY" -conns 4 -duration 8s -warmup 500ms \
	-dist uniform -keys 20000 -mix get=50,put=44,del=5,scan=1 \
	-drain | tee "$TMP/cs_load.txt"
grep -q ', 0 errs,' "$TMP/cs_load.txt" || {
	echo "cluster-smoke: kvload reported errors (the proxy failed to mask the outage)"
	exit 1
}

# The drain has been acked, so once the rejoiner's resync settles every
# backend pool must be idle: poll the proxy's /metrics until all three
# per-backend inflight gauges read 0.
ok=0
i=0
while [ $i -lt 60 ]; do
	curl -fsS "http://$PMET/metrics" >"$TMP/cs_metrics.txt" 2>/dev/null || true
	if [ "$(grep -c '^cluster/backend/[^ ]*/inflight 0$' "$TMP/cs_metrics.txt")" = 3 ]; then
		ok=1
		break
	fi
	sleep 0.5
	i=$((i + 1))
done
if [ $ok != 1 ]; then
	echo "cluster-smoke: per-backend inflight gauges did not return to 0 after drain:"
	grep '^cluster/' "$TMP/cs_metrics.txt" || true
	exit 1
fi
grep -q '^cluster/ops/routed [1-9]' "$TMP/cs_metrics.txt" || {
	echo "cluster-smoke: proxy routed-op counter missing or zero"
	exit 1
}

# Graceful teardown, leak verdicts all around: the proxy first, then
# each backend. kvserver exits non-zero if its post-drain leak check
# fails; the restarted backend's status arrives via the chaos subshell.
kill -INT "$PP"; wait "$PP"; PP=
kill -INT "$S1"; wait "$S1" || { echo "cluster-smoke: backend $A1 leak check failed"; cat "$TMP/cs_s1.log"; exit 1; }
S1=
kill -INT "$S3"; wait "$S3" || { echo "cluster-smoke: backend $A3 leak check failed"; cat "$TMP/cs_s3.log"; exit 1; }
S3=
kill -INT "$(cat "$TMP/cs_s2.pid")"
wait "$CHAOS" || { echo "cluster-smoke: restarted backend $A2 leak check failed"; cat "$TMP/cs_s2b.log"; exit 1; }
CHAOS=
grep -q '"leak_ok": true' "$TMP/cs_s2b.log" || {
	echo "cluster-smoke: restarted backend printed no clean leak report"
	cat "$TMP/cs_s2b.log"
	exit 1
}

echo "cluster-smoke: OK"
