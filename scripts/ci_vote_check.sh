#!/usr/bin/env bash
# End-to-end replicated-voting check for the job service (DESIGN.md §12).
#
# Drives popbean-stress with 3-replica voting under 10% corrupt chaos and
# requires, via --expect-vote-recovery plus report validation:
#
#   * zero wrong majority-voted decisions (the whole point of voting),
#   * at least one observed divergence (the chaos actually bit),
#   * the divergence quarantine tripped AND recovered (probation worked),
#   * a clean exactly-one-response ledger on every connection,
#   * divergence telemetry naming the minority replica's RNG stream, and
#   * a captured minority execution that popbean-replay reproduces
#     bit-exactly.
#
# Exercises the same guarantees as VoteServiceTest, but across the real
# binaries with real concurrency.
#
# Usage: scripts/ci_vote_check.sh [path/to/popbean-stress] [path/to/popbean-replay]
set -u -o pipefail

STRESS_BIN="${1:-build/tools/popbean-stress}"
REPLAY_BIN="${2:-build/tools/popbean-replay}"
for bin in "$STRESS_BIN" "$REPLAY_BIN"; do
  if [[ ! -x "$bin" ]]; then
    echo "$bin not found (build it first)" >&2
    exit 2
  fi
done

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

# Aggressive-but-proven parameters: a 30% corruption rate on a corrupted
# replica reliably flips or stalls it within a 200-agent run, so 10% chaos
# over 120 jobs yields several divergences; quarantine at 2 divergences with
# a 100 ms cooldown trips and recovers within the run. popbean-stress exits
# nonzero if any voted decision is wrong or quarantine never recovers.
echo "=== voted stress run (3 replicas, 10% corrupt chaos) ==="
"$STRESS_BIN" \
  --jobs=120 --rate=200 --threads=4 \
  --n=200 --eps=0.1 --deadline-ms=3000 \
  --replicas=3 --chaos=0.10 --chaos-kind=corrupt --corrupt-rate=0.3 \
  --quarantine-divergences=2 --quarantine-cooldown-ms=100 \
  --capture-dir="$WORKDIR/captures" \
  --telemetry-out="$WORKDIR/telemetry.jsonl" \
  --expect-vote-recovery \
  --bench-out=BENCH_vote_chaos.json
echo "stress run passed its own gates"

echo "=== validate report, telemetry, and quarantine round trip ==="
python3 - "$WORKDIR" <<'EOF'
import json, sys
workdir = sys.argv[1]
with open("BENCH_vote_chaos.json") as f:
    report = json.load(f)
vote = report["vote"]
assert vote["voted_wrong"] == 0, vote
assert vote["voted_responses"] > 0, "nothing was voted"
assert vote["divergences"] >= 1, "chaos never produced a divergence"
assert vote["quarantine_entered"] >= 1, "quarantine never tripped"
assert vote["quarantine_recovered"] >= 1, "quarantine never recovered"
ledger = report["ledger"]
assert ledger["missing"] == 0 and ledger["duplicates"] == 0, ledger
assert report["drained_clean"], "drain was not clean"

streams = 0
with open(f"{workdir}/telemetry.jsonl") as f:
    for line in f:
        event = json.loads(line)
        if event.get("event") == "vote_divergence" and "stream" in event:
            streams += 1
assert streams >= 1, "no divergence telemetry with a minority stream"
print("OK:", {k: vote[k] for k in sorted(vote)})
EOF

echo "=== replay a captured minority execution bit-exactly ==="
HEADER="$(ls "$WORKDIR"/captures/*.header.pbsn 2>/dev/null | head -1)"
if [[ -z "$HEADER" ]]; then
  echo "no divergence capture pair was written" >&2
  exit 1
fi
LOG="${HEADER%.header.pbsn}.log.pbsn"
"$REPLAY_BIN" "$HEADER" "$LOG"
echo "vote chaos check passed"
