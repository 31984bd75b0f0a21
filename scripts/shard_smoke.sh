#!/bin/sh
# End-to-end smoke of the sharded twserved pool.
#
# Starts three ordinary twserved workers plus a router front door
# (twserved --router --shards ...), then checks the distribution
# contract from the outside:
#
#   0. malformed --shards / --pool members are fatal, binding nothing;
#   1. a fig2 sweep through the router is bit-identical (rows AND
#      order) to the same sweep computed in-process (twctl local);
#   2. resubmitting is served entirely from the shard-local caches
#      (summary says computed=0, router stats aggregate the hits);
#   3. per-shard stats prove the work actually spread: at least two
#      workers own a nonzero slice of the key space;
#   4. SIGKILLing a worker mid-request yields either a clean typed
#      error (shard_failed / shutting_down, exit 2) or a completed
#      sweep — never a hang, a partial row dump, or a crash — and
#      after the health checker notices, the survivors serve the
#      remapped sweep;
#   5. SIGTERM drains the router cleanly (exit 0, socket unlinked).
#
# PID hygiene: workers and router are killed by the PIDs captured at
# spawn ($!), never by pgrep patterns — the router's --shards
# argument contains every worker socket name, so name-based matching
# would kill the router too.
#
# Usage: scripts/shard_smoke.sh [build-dir]
set -e
cd "$(dirname "$0")/.."
BUILD="${1:-build}"
SERVED="$BUILD/tools/twserved"
CTL="$BUILD/tools/twctl"

if [ ! -x "$SERVED" ] || [ ! -x "$CTL" ]; then
    echo "shard_smoke: tools not built, skipping" >&2
    exit 0
fi

W0="/tmp/twshard-smoke-$$-w0.sock"
W1="/tmp/twshard-smoke-$$-w1.sock"
W2="/tmp/twshard-smoke-$$-w2.sock"
RSOCK="/tmp/twshard-smoke-$$-router.sock"
T=$(mktemp -d)
P0=""; P1=""; P2=""; RPID=""
cleanup() {
    for p in "$P0" "$P1" "$P2" "$RPID"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -f "$W0" "$W1" "$W2" "$RSOCK"
    rm -rf "$T"
}
trap cleanup EXIT

fail() {
    echo "shard_smoke: FAIL — $1" >&2
    exit 1
}

# ---- 0. Malformed pool members are fatal before anything binds ---
# Each form fails to parse (timeout: a router that started anyway
# exits 124, not the fatal 1 required here).
for shards in "$W0," "$W0,,$W1" "127.0.0.1" "127.0.0.1:7x" \
              "127.0.0.1:0" "127.0.0.1:65536" "localhost:7733"; do
    rc=0
    timeout 10 "$SERVED" --router --shards "$shards" --socket "$RSOCK" \
        --quiet > /dev/null 2> "$T/bad.log" || rc=$?
    [ "$rc" -eq 1 ] || fail "router --shards '$shards' exited $rc, want 1"
    grep -q 'fatal' "$T/bad.log" \
        || fail "router --shards '$shards': no fatal line"
    [ ! -e "$RSOCK" ] || fail "router --shards '$shards' bound $RSOCK"
    rc=0
    "$CTL" shard-owner --pool "$shards" --workload espresso \
        > /dev/null 2>&1 || rc=$?
    [ "$rc" -eq 1 ] || fail "shard-owner --pool '$shards' exited $rc"
done
echo "shard_smoke: malformed pool members are fatal"

"$SERVED" --socket "$W0" --workers 2 --queue 64 --quiet & P0=$!
"$SERVED" --socket "$W1" --workers 2 --queue 64 --quiet & P1=$!
"$SERVED" --socket "$W2" --workers 2 --queue 64 --quiet & P2=$!
for s in "$W0" "$W1" "$W2"; do
    "$CTL" --socket "$s" ping --retry 100 --retry-delay-ms 50 \
        > /dev/null 2>&1 || fail "worker on $s did not answer ping"
done

# Short health interval so phase 4's failure detection is fast.
"$SERVED" --router --shards "$W0,$W1,$W2" --socket "$RSOCK" \
    --health-interval 100 --quiet & RPID=$!
"$CTL" --socket "$RSOCK" ping --retry 100 --retry-delay-ms 50 \
    > /dev/null 2>&1 || fail "router did not answer ping on $RSOCK"

up=$("$CTL" --socket "$RSOCK" stats --path router.shards_up)
[ "$up" = "3" ] || fail "router reports shards_up=$up, want 3"
echo "shard_smoke: 3 workers + router up"

SCALE="${TW_SCALE_DIV:-2000}"
SPEC="--workload mpeg_play --indexing virtual --scope user \
      --scale $SCALE --trials 6"

# ---- 1. Pooled rows bit-identical (and in order) vs local ---------
# shellcheck disable=SC2086  # $SPEC is a word list
"$CTL" local $SPEC --cache 1K --canonical > "$T/local.txt"
# shellcheck disable=SC2086
"$CTL" --socket "$RSOCK" submit $SPEC --cache 1K --canonical \
    > "$T/pooled.txt" 2> "$T/pooled.log"
diff -u "$T/local.txt" "$T/pooled.txt" \
    || fail "pooled rows differ from direct Runner output"
grep -q 'computed=6' "$T/pooled.log" \
    || fail "cold pooled sweep not fully computed: $(cat "$T/pooled.log")"
echo "shard_smoke: pooled fig2 sweep bit-identical to local"

# ---- 2. Resubmit is served from the shard-local caches ------------
# shellcheck disable=SC2086
"$CTL" --socket "$RSOCK" submit $SPEC --cache 1K --canonical \
    > "$T/resub.txt" 2> "$T/resub.log"
diff -u "$T/local.txt" "$T/resub.txt" \
    || fail "cached pooled resubmit rows differ"
grep -q 'cached=6 computed=0' "$T/resub.log" \
    || fail "resubmit not fully cached: $(cat "$T/resub.log")"
hits=$("$CTL" --socket "$RSOCK" stats --path experiments._adhoc.hits)
[ "$hits" -ge 6 ] \
    || fail "router-aggregated cache hits=$hits, want >= 6"
echo "shard_smoke: resubmit fully cached across shards (hits=$hits)"

# ---- 3. The key space actually spread over the pool ---------------
# shellcheck disable=SC2086
owners=$("$CTL" shard-owner --pool "$W0,$W1,$W2" $SPEC --cache 1K \
    2> /dev/null | awk '{print $NF}' | sort -u | wc -l)
[ "$owners" -ge 2 ] \
    || fail "all 6 trials hash to one shard (owners=$owners)"
echo "shard_smoke: trials spread over $owners shards"

# ---- 4. Killing a worker mid-request fails typed, then remaps -----
# Race a 12-trial sweep against a SIGKILL of worker 1. Depending on
# timing the sweep either completed first or fails with a typed
# error — both fine; a hang, crash, or untyped failure is not.
( sleep 0.02; kill -KILL "$P1" 2>/dev/null ) &
KILLER=$!
rc=0
# shellcheck disable=SC2086
"$CTL" --socket "$RSOCK" submit $SPEC --trials 12 --cache 4K \
    > /dev/null 2> "$T/kill.log" || rc=$?
wait "$KILLER" 2>/dev/null || true
wait "$P1" 2>/dev/null || true
P1=""
if [ "$rc" -eq 0 ]; then
    echo "shard_smoke: sweep outran the kill (ok)"
elif [ "$rc" -eq 2 ]; then
    grep -Eq 'shard_failed|shutting_down|overloaded' "$T/kill.log" \
        || fail "mid-kill failure untyped: $(cat "$T/kill.log")"
    echo "shard_smoke: mid-kill sweep failed typed ($(
        grep -Eo 'shard_failed|shutting_down|overloaded' \
            "$T/kill.log" | head -1))"
else
    fail "mid-kill sweep exited $rc: $(cat "$T/kill.log")"
fi

# The health checker must notice the dead shard...
i=0
while :; do
    up=$("$CTL" --socket "$RSOCK" stats --path router.shards_up)
    [ "$up" = "2" ] && break
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "router still reports shards_up=$up"
    sleep 0.05
done
# ...and the survivors serve the remapped sweep, still bit-identical.
# shellcheck disable=SC2086
"$CTL" --socket "$RSOCK" submit $SPEC --cache 1K --canonical \
    > "$T/remap.txt" 2> "$T/remap.log"
diff -u "$T/local.txt" "$T/remap.txt" \
    || fail "post-failure remapped rows differ"
echo "shard_smoke: dead shard detected, survivors serve remapped sweep"

# ---- 5. Router SIGTERM drains cleanly -----------------------------
kill -TERM "$RPID"
rc=0
wait "$RPID" || rc=$?
RPID=""
[ "$rc" -eq 0 ] || fail "router exited $rc on SIGTERM, want 0"
[ ! -S "$RSOCK" ] || fail "router left $RSOCK behind"
echo "shard_smoke: OK (clean router drain)"
