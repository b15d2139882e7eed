#!/bin/sh
# overload-smoke: a race-built kvserver with a deliberately small
# admission bound (2 inflight slots, 2 queue waiters) takes two kvload
# runs with per-op wire budgets: an unloaded baseline (2 conns) and an
# overload run (24 conns — each holds one op in the server at a time,
# so that is 6× the 2-slot + 2-waiter capacity). Both runs use a
# scan-heavy mix with wide scans so time-in-execution, not per-conn
# socket IO, is where the server's capacity goes. The
# overload run must be *shed*, not queued: zero transport errors, a
# non-zero shed count, and an accepted-op p99 within 3× the unloaded
# baseline (with an absolute floor so a fast machine's tiny baseline
# doesn't make the ratio noise). The server must then pass its
# post-drain leak verdict on SIGINT — refused work left nothing behind.
#
# Invoked by `make overload-smoke`, which builds bin/ first.
set -eu

BIN=${BIN:-bin}
ADDR=127.0.0.1:7401
TMP=${TMPDIR:-/tmp}

SRV=
cleanup() {
	[ -n "$SRV" ] && kill "$SRV" 2>/dev/null || true
}
trap cleanup EXIT

"$BIN"/kvserver -addr "$ADDR" -reclaim orcgc \
	-max-inflight 2 -max-queue 2 >"$TMP/os_srv.log" 2>&1 & SRV=$!
sleep 1

# p99 <file>: pull the microsecond p99 out of a kvload summary line
# ("... p99 1234.5us ..."), truncated to an integer for shell math.
p99() {
	awk '{for (i = 1; i < NF; i++) if ($i == "p99") {sub(/us$/, "", $(i+1)); printf "%d\n", $(i+1); exit}}' "$1"
}
# field <name> <file>: pull the count before "<name>," from the
# trailing "(N ops, N errs, N shed, N expired)" tally.
field() {
	awk -v want="$1," '{for (i = 2; i <= NF; i++) if ($i == want) {gsub(/[(,]/, "", $(i-1)); print $(i-1); exit}}' "$2"
}

# The mix leans on wide SCANs: they are the op that actually occupies
# an inflight slot for a while, so admission — not connection IO — is
# what saturates.
MIX='get=30,put=20,del=10,scan=40'

"$BIN"/kvload -addr "$ADDR" -conns 2 -duration 3s -warmup 500ms -pipeline 8 \
	-dist uniform -keys 20000 -mix "$MIX" -scanlen 1024 \
	-budget 250ms | tee "$TMP/os_base.txt"
BASE_P99=$(p99 "$TMP/os_base.txt")
[ -n "$BASE_P99" ] || { echo "overload-smoke: no baseline p99 parsed"; exit 1; }

"$BIN"/kvload -addr "$ADDR" -conns 24 -duration 3s -warmup 500ms -pipeline 8 \
	-dist uniform -keys 20000 -mix "$MIX" -scanlen 1024 \
	-budget 250ms -preload=false | tee "$TMP/os_hot.txt"
HOT_P99=$(p99 "$TMP/os_hot.txt")
HOT_ERRS=$(field errs "$TMP/os_hot.txt")
HOT_SHED=$(field shed "$TMP/os_hot.txt")

[ "$HOT_ERRS" = 0 ] || {
	echo "overload-smoke: overload run hit $HOT_ERRS transport errors (want sheds, not failures)"
	exit 1
}
[ "$HOT_SHED" -gt 0 ] || {
	echo "overload-smoke: 24 conns against 2 slots + 2 waiters shed nothing — admission never engaged"
	exit 1
}
# Accepted-op latency must not collapse: p99 within 3× baseline, floor
# 50ms (race-built binaries on shared CI runners are noisy).
BOUND=$((BASE_P99 * 3))
[ "$BOUND" -ge 50000 ] || BOUND=50000
[ "$HOT_P99" -le "$BOUND" ] || {
	echo "overload-smoke: overloaded p99 ${HOT_P99}us exceeds bound ${BOUND}us (baseline ${BASE_P99}us) — saturation queued instead of shedding"
	exit 1
}

# Graceful teardown: kvserver prints the admission ledger and exits
# non-zero if the post-drain leak check fails.
kill -INT "$SRV"
wait "$SRV" || { echo "overload-smoke: leak check failed"; cat "$TMP/os_srv.log"; exit 1; }
SRV=
grep -q 'admission: shed=' "$TMP/os_srv.log" || {
	echo "overload-smoke: server printed no admission ledger"
	cat "$TMP/os_srv.log"
	exit 1
}

echo "overload-smoke: OK (baseline p99 ${BASE_P99}us, overloaded p99 ${HOT_P99}us, ${HOT_SHED} shed)"
