#!/usr/bin/env bash
# Perf-trajectory gate for the engine microbench (DESIGN.md §8).
#
# Runs build/bench/engine_microbench on the committed baseline's grid and
# compares per-case ns/interaction against BENCH_baseline.json, using the
# BEST repeat of each case (1e9 / units_per_sec.max): best-of is robust to
# scheduler noise where the mean is not — a descheduled repeat inflates the
# mean by 30% but barely moves the best. A case slower than baseline by
# more than the tolerance fails the job; a case *faster* by more than the
# tolerance only warns (the baseline is stale — refresh it, don't celebrate
# silently).
#
# The tolerance is deliberately wide (default 25%) because CI runners are
# shared; the gate exists to catch step-change regressions (an accidental
# O(n) in the hot loop, a lost fast path), not single-digit drift.
#
# Before comparing, the report's shape is checked: every case has a positive
# rate and timed units, the four core cases (agent/four_state, count/avc63,
# count/avc_nstate, skip/avc63) are present, and so is every baseline case.
# A failed shape check fails the job.
#
# After the comparison the script also prints, for reading only, the median
# ratio over all cases and each case's ratio divided by that median: a host
# that runs slower across the board moves the median, while a regression in
# one case stands out from it. These lines never change the verdict.
#
# Usage: scripts/ci_bench_regress.sh [path/to/engine_microbench]
#   BENCH_BASELINE=path   baseline report (default BENCH_baseline.json)
#   BENCH_REPORT=path     keep this run's report there (default: a temp file
#                         removed on exit)
#   TOLERANCE_PCT=N       regression tolerance in percent (default 25)
#   UPDATE_BASELINE=1     rewrite the baseline from this run instead of
#                         comparing (use on a quiet machine, then commit)
set -u -o pipefail

BENCH_BIN="${1:-build/bench/engine_microbench}"
BASELINE="${BENCH_BASELINE:-BENCH_baseline.json}"
TOLERANCE_PCT="${TOLERANCE_PCT:-25}"

if [[ ! -x "$BENCH_BIN" ]]; then
  echo "$BENCH_BIN not found (build it first)" >&2
  exit 2
fi

# The baseline records its own grid so the comparison run always matches it.
if [[ "${UPDATE_BASELINE:-0}" != "1" && ! -f "$BASELINE" ]]; then
  echo "baseline $BASELINE not found (run with UPDATE_BASELINE=1 first)" >&2
  exit 2
fi

if [[ "${UPDATE_BASELINE:-0}" == "1" ]]; then
  N=20000; BATCH=500000; SKIP_BATCH=50000; REPEATS=5
else
  read -r N BATCH SKIP_BATCH REPEATS < <(python3 - "$BASELINE" <<'EOF'
import json, sys
base = json.load(open(sys.argv[1]))
print(base["n"], base["batch"], base["skip_batch"], base["repeats"])
EOF
  )
fi

if [[ -n "${BENCH_REPORT:-}" ]]; then
  REPORT="$BENCH_REPORT"
else
  REPORT="$(mktemp --suffix=.json)"
  trap 'rm -f "$REPORT"' EXIT
fi
echo "=== engine_microbench (n=$N batch=$BATCH skip_batch=$SKIP_BATCH repeats=$REPEATS) ==="
"$BENCH_BIN" --n="$N" --batch="$BATCH" --skip-batch="$SKIP_BATCH" \
  --repeats="$REPEATS" --json="$REPORT" >/dev/null || exit 1

echo "=== report shape ==="
python3 - "$REPORT" <<'EOF' || exit 1
import json, sys

results = json.load(open(sys.argv[1]))["results"]
assert results, "no benchmark results"
for case in results:
    assert case["units_per_sec"]["mean"] > 0, f"non-positive rate in {case['name']}"
    assert case["units"] > 0, f"no timed units in {case['name']}"
names = {case["name"] for case in results}
for expected in ("agent/four_state", "count/avc63", "count/avc_nstate",
                 "skip/avc63"):
    assert expected in names, f"missing case {expected}"
print(f"OK: {len(results)} cases")
EOF

if [[ "${UPDATE_BASELINE:-0}" == "1" ]]; then
  cp "$REPORT" "$BASELINE"
  echo "baseline refreshed: $BASELINE"
  exit 0
fi

echo "=== compare ns/interaction vs $BASELINE (±${TOLERANCE_PCT}%) ==="
python3 - "$BASELINE" "$REPORT" "$TOLERANCE_PCT" <<'EOF'
import json, statistics, sys

baseline_path, report_path, tolerance_pct = sys.argv[1:4]
tolerance = float(tolerance_pct) / 100.0

def ns_per_unit(report):
    cases = {}
    for case in report["results"]:
        rate = case["units_per_sec"]["max"]  # best repeat: noise-robust
        if rate > 0:
            cases[case["name"]] = 1e9 / rate
    return cases

base = ns_per_unit(json.load(open(baseline_path)))
now = ns_per_unit(json.load(open(report_path)))

missing = sorted(set(base) - set(now))
for name in missing:
    print(f"MISSING {name}: baseline case absent from this run")
regressions, improvements, ratios = [], [], {}
for name, base_ns in sorted(base.items()):
    if name not in now:
        continue
    ratio = now[name] / base_ns
    ratios[name] = ratio
    line = f"{name}: {base_ns:9.3f} -> {now[name]:9.3f} ns/unit ({ratio:5.2f}x)"
    if ratio > 1.0 + tolerance:
        regressions.append(line)
        print("REGRESSION", line)
    elif ratio < 1.0 - tolerance:
        improvements.append(line)
        print("FASTER    ", line)
    else:
        print("ok        ", line)

compared = len(ratios)
assert compared > 0, "no comparable cases between baseline and this run"
median = statistics.median(ratios.values())
print(f"\nreport only: median ratio {median:.2f}x over {compared} cases; "
      "each case's ratio / median:")
for name, ratio in sorted(ratios.items()):
    print(f"  {name}: {ratio / median:5.2f}")
if improvements:
    print(f"\nnote: {len(improvements)} case(s) beat the baseline by more "
          f"than {tolerance_pct}% — refresh BENCH_baseline.json "
          "(UPDATE_BASELINE=1) so the gate tracks the new floor")
if regressions:
    print(f"\n{len(regressions)} case(s) regressed beyond ±{tolerance_pct}%",
          file=sys.stderr)
if missing:
    print(f"\n{len(missing)} baseline case(s) missing from this run",
          file=sys.stderr)
if regressions or missing:
    sys.exit(1)
print(f"\nOK: {compared} cases within tolerance")
EOF
