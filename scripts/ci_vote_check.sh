#!/usr/bin/env bash
# End-to-end replicated-voting check for the job service (DESIGN.md §12).
#
# Starts popbean-serve --listen with 3-replica voting under 10% corrupt
# chaos, drives it over TCP with popbean-stress, SIGTERMs it, and
# requires:
#
#   * zero wrong majority-voted decisions (the whole point of voting) and
#     at least one voted response (stress report),
#   * at least one observed divergence (the chaos actually bit) and a
#     divergence quarantine that tripped AND recovered (server's final
#     exposition),
#   * a clean exactly-one-response ledger and a clean drain,
#   * divergence telemetry naming the minority replica's RNG stream, and
#   * a captured minority execution that popbean-replay reproduces
#     bit-exactly.
#
# Exercises the same guarantees as VoteServiceTest, but across the real
# binaries with real concurrency.
#
# Usage: scripts/ci_vote_check.sh [build-dir] [--FLAG=VALUE ...]
# Extra flags go to popbean-serve after the defaults below, so they
# override them (--chaos=0 removes the corruption, and the divergence gate
# must then fail).
set -e -u -o pipefail

source "$(dirname "$0")/serve_lib.sh"
split_build_arg "$@"
SERVE_BIN="$BUILD/tools/popbean-serve"
STRESS_BIN="$BUILD/tools/popbean-stress"
REPLAY_BIN="$BUILD/tools/popbean-replay"
require_bins "$SERVE_BIN" "$STRESS_BIN" "$REPLAY_BIN"

# Aggressive-but-proven parameters: a 30% corruption rate on a corrupted
# replica reliably flips or stalls it within a 200-agent run, so 10% chaos
# over 120 jobs yields several divergences; quarantine at 2 divergences with
# a 100 ms cooldown trips and recovers within the run.
echo "=== voted run (3 replicas, 10% corrupt chaos) ==="
serve_start serve "$SERVE_BIN" \
  --threads=4 --queue-capacity=64 --replicas=3 \
  --chaos=0.10 --chaos-kind=corrupt --corrupt-rate=0.3 \
  --quarantine-divergences=2 --quarantine-cooldown-ms=100 \
  --breaker-cooldown-ms=250 --drain-deadline-ms=12000 --seed=360021 \
  --capture-dir="$WORKDIR/captures" \
  --telemetry-out="$WORKDIR/telemetry.jsonl" \
  --prom-out="$WORKDIR/serve.prom" "${FLAGS[@]}"
"$STRESS_BIN" --connect=127.0.0.1:"$SERVE_PORT" \
  --jobs=120 --rate=200 --n=200 --eps=0.1 --deadline-ms=3000 \
  --replicas=3 --bench-out=BENCH_vote_chaos.json || {
  echo "popbean-stress reported a ledger violation" >&2
  exit 1
}
serve_stop serve "$SERVE_PID"
require_clean_drain serve

echo "=== validate exposition, report, telemetry, and quarantine round trip ==="
# Chaos produced a divergence, and a divergence quarantine tripped AND
# recovered.
for counter in divergences quarantine_entered quarantine_recovered; do
  require_fleet_counter "$WORKDIR/serve.prom" \
    "popbean_serve_vote_${counter}_total" 1
done
python3 - "$WORKDIR" <<'PY'
import json, sys
workdir = sys.argv[1]
with open("BENCH_vote_chaos.json") as f:
    report = json.load(f)
vote = report["vote"]
assert vote["voted_wrong"] == 0, vote
assert vote["voted_responses"] > 0, "nothing was voted"
ledger = report["ledger"]
assert ledger["missing"] == 0 and ledger["duplicates"] == 0, ledger
assert ledger["unknown"] == 0 and ledger["invalid"] == 0, ledger

streams = 0
with open(f"{workdir}/telemetry.jsonl") as f:
    for line in f:
        event = json.loads(line)
        if event.get("event") == "vote_divergence" and "stream" in event:
            streams += 1
assert streams >= 1, "no divergence telemetry with a minority stream"
print("OK:", {k: vote[k] for k in sorted(vote)})
PY

echo "=== replay a captured minority execution bit-exactly ==="
HEADER="$(ls "$WORKDIR"/captures/*.header.pbsn 2>/dev/null | head -1 || true)"
if [[ -z "$HEADER" ]]; then
  echo "no divergence capture pair was written" >&2
  exit 1
fi
LOG="${HEADER%.header.pbsn}.log.pbsn"
"$REPLAY_BIN" "$HEADER" "$LOG"
echo "vote chaos check passed"
