#!/usr/bin/env bash
# Results-plane smoke: the three roads to a canonical table must agree.
# One sweep runs as two concurrent journaled shards that push rows and
# refinement metrics to collectd and write per-shard JSONL; then
#   1. figures -merge of the shard files must be byte-identical to a
#      single-process run (CSV and JSONL),
#   2. the CSVs collectd wrote must be byte-identical to it too, and
#   3. -merge must refuse, with a non-zero exit, a group whose shard
#      lost its last row (as a killed shard would).
# Covers a fixed grid (figure5) and an adaptive refinement sweep
# (refined-e), whose shards split the simulation work through the
# collector's metric exchange. `make results-check` and the CI
# results-check job both call this.
set -euo pipefail

COLLECT_ADDR=${COLLECT_ADDR:-127.0.0.1:19190}
KEYS=${KEYS:-figure5,refined-e}
tmp=$(mktemp -d)
pid=

cleanup() {
    [[ -n "$pid" ]] && kill -KILL "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

fail() {
    echo "results-check: $*" >&2
    exit 1
}

go build -o "$tmp/collectd" ./cmd/collectd
go build -o "$tmp/figures" ./cmd/figures

"$tmp/collectd" -addr "$COLLECT_ADDR" -out "$tmp/collected" -shards 2 \
    -exit-when-done >"$tmp/collectd.log" 2>&1 &
pid=$!

# A shard whose hello finds nobody listening degrades to journal-only
# mode by design, so wait for the collector to answer before starting
# any shard.
ready=0
for _ in $(seq 1 100); do
    if curl -sf "http://$COLLECT_ADDR/v1/status" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
if [[ "$ready" != 1 ]]; then
    cat "$tmp/collectd.log" >&2
    fail "collectd never became reachable on $COLLECT_ADDR"
fi

# Both shards run concurrently so each can resolve the other's
# refinement metrics through the collector instead of re-simulating
# them; the journals make either shard individually resumable.
"$tmp/figures" -out "$tmp/sharded" -only "$KEYS" -shard 0/2 \
    -journal "$tmp/sharded/j0.jsonl" -collect "http://$COLLECT_ADDR" &
s0=$!
"$tmp/figures" -out "$tmp/sharded" -only "$KEYS" -shard 1/2 \
    -journal "$tmp/sharded/j1.jsonl" -collect "http://$COLLECT_ADDR" &
s1=$!
wait "$s0" "$s1"

# collectd writes the canonical CSVs and exits once both shards report
# done; if a shard silently fell back to journal-only mode that exit
# never comes, so bound the wait instead of hanging.
exited=0
for _ in $(seq 1 300); do
    if ! kill -0 "$pid" 2>/dev/null; then
        exited=1
        break
    fi
    sleep 0.1
done
if [[ "$exited" != 1 ]]; then
    curl -s "http://$COLLECT_ADDR/v1/status" >&2 || true
    cat "$tmp/collectd.log" >&2
    fail "collectd still running — not every shard reported done"
fi
if ! wait "$pid"; then
    cat "$tmp/collectd.log" >&2
    fail "collectd did not exit cleanly"
fi
pid=

# Keep an untouched copy of the shard files for the negative case.
mkdir "$tmp/cut"
cp "$tmp"/sharded/*.shard*-of-2.jsonl "$tmp"/sharded/INDEX.shard*-of-2.txt "$tmp/cut/"

"$tmp/figures" -out "$tmp/sharded" -merge -jsonl
"$tmp/figures" -out "$tmp/single" -only "$KEYS" -jsonl

found=0
for f in "$tmp"/single/*.csv "$tmp"/single/*.jsonl; do
    base=$(basename "$f")
    diff "$f" "$tmp/sharded/$base" || fail "$base differs between merged and single-process output"
    if [[ "$base" == *.csv ]]; then
        diff "$f" "$tmp/collected/$base" || fail "$base differs between collected and single-process output"
        found=$((found + 1))
    fi
done
[[ "$found" -ge 2 ]] || fail "expected at least 2 tables, found $found"

# A shard's JSONL cut short at its tail has no gap below its highest
# index; only the shard's own INDEX row count can expose it.
victim=$(ls "$tmp"/cut/*.shard0-of-2.jsonl | head -n 1)
sed -i '$d' "$victim"
if "$tmp/figures" -out "$tmp/cut" -merge >"$tmp/cut.log" 2>&1; then
    cat "$tmp/cut.log" >&2
    fail "-merge accepted $(basename "$victim") with its last row deleted"
fi
grep -q "recorded" "$tmp/cut.log" || { cat "$tmp/cut.log" >&2; fail "-merge refused the cut shard without naming the row count"; }

echo "results-check: merged and collected output of 2 shards are byte-identical to the single-process run ($found tables); a shard cut at its tail is refused"
