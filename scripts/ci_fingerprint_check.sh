#!/usr/bin/env bash
# Trajectory fingerprint gate for the paper workloads.
#
# Runs the end-to-end benchmark's traced fig3 and thm41 workloads
# (perfbench/run.py --trace 1) at the seed recorded in
# BENCH_fingerprint.json, and requires for each:
#
#   * the run's own output checks to pass: "correct": true, "failed" == 0;
#   * engine.interactions_total, engine.skip.steps and
#     engine.count.interactions to equal the committed values exactly.
#
# The traced pass is one deterministic grid pass: its counters depend on the
# seed only, not on --seconds or the host's speed, so any change to a
# counter means a seeded trajectory changed. A change that claims bit-exactness must leave them alone; a
# change that moves a trajectory on purpose re-pins this file and says so.
# Wall-clock metrics are not compared.
#
# Usage: scripts/ci_fingerprint_check.sh [fingerprint.json]
set -e -u -o pipefail

FINGERPRINT="${1:-BENCH_fingerprint.json}"
if [[ ! -f "$FINGERPRINT" ]]; then
  echo "$FINGERPRINT not found" >&2
  exit 2
fi

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

read -r SEED WORKLOADS < <(python3 - "$FINGERPRINT" <<'PY'
import json, sys
pinned = json.load(open(sys.argv[1]))
print(pinned["seed"], " ".join(pinned["workloads"]))
PY
)

for workload in $WORKLOADS; do
  echo "=== $workload (seed $SEED, traced) ==="
  # A failed output check exits 1 but still prints its JSON line, which the
  # comparison below reports; any other nonzero exit is fatal here.
  status=0
  python3 perfbench/run.py --workload "$workload" --trace 1 --seed "$SEED" \
    >"$WORKDIR/$workload.log" 2>&1 || status=$?
  if [[ "$status" -ne 0 && "$status" -ne 1 ]]; then
    echo "perfbench exited $status on $workload" >&2
    cat "$WORKDIR/$workload.log" >&2
    exit 1
  fi
done

python3 - "$FINGERPRINT" "$WORKDIR" <<'PY'
import json, sys
pinned = json.load(open(sys.argv[1]))
workdir = sys.argv[2]
failures = []
for workload, expected in pinned["workloads"].items():
    lines = open(f"{workdir}/{workload}.log").read().splitlines()
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        failures.append(f"{workload}: correct is {result['correct']}")
    if result["failed"] != 0:
        failures.append(f"{workload}: failed = {result['failed']}")
    for name, want in expected.items():
        got = result["metrics"][name]["value"]
        status = "ok" if got == want else "CHANGED"
        print(f"{workload:6} {name:28} {got:>16} (pinned {want}) {status}")
        if got != want:
            failures.append(f"{workload}: {name} = {got}, pinned {want}")
if failures:
    print("trajectory fingerprint mismatch:", file=sys.stderr)
    for failure in failures:
        print("  " + failure, file=sys.stderr)
    sys.exit(1)
print("OK: every pinned trajectory counter reproduced")
PY
