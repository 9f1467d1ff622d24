#!/usr/bin/env bash
# End-to-end resilience check for the job service (DESIGN.md §9).
#
# Starts popbean-serve --listen with 10% worker chaos plus a scripted
# outage window (every attempt of the jobs admitted in it fails), drives it
# open-loop over TCP with popbean-stress at 2× core saturation, SIGTERMs
# it, and requires:
#
#   * exactly one response per submitted job (stress report: submitted ==
#     responses == jobs, no missing/duplicate/unknown ids; popbean-stress
#     itself exits 1 on those and on any request of its own answered
#     `invalid`),
#   * a nondegenerate client-measured latency (p50 > 0),
#   * a breaker that opened during the outage AND closed after it
#     (serve.breaker_opens/closes in the server's final exposition),
#   * a clean drain (no "drain forced" on the server's stderr, exit 3).
#     SIGTERM comes after the client has read every response, so this
#     drain only has to reap workers a slow-chaos draw still holds after
#     the watchdog answered their job.
#
# Usage: scripts/ci_stress_check.sh [build-dir] [--FLAG=VALUE ...]
# --jobs, --rate, --n and --bench-out go to popbean-stress; every other
# flag goes to popbean-serve after the defaults below, so it overrides them
# (--outage-len=0 removes the outage, and the breaker gate must then fail).
set -e -u -o pipefail

source "$(dirname "$0")/serve_lib.sh"
split_build_arg "$@"
SERVE_BIN="$BUILD/tools/popbean-serve"
STRESS_BIN="$BUILD/tools/popbean-stress"
require_bins "$SERVE_BIN" "$STRESS_BIN"

BENCH=BENCH_serve.json
CLIENT_ARGS=(--jobs=200 --rate=100 --n=300 --eps=0.1 --deadline-ms=2000)
SERVE_ARGS=(--threads="$(( $(nproc) * 2 ))" --queue-capacity=64
            --chaos=0.1 --outage-start=40 --outage-len=16
            --breaker-failures=4 --breaker-cooldown-ms=250
            --quarantine-cooldown-ms=250 --drain-deadline-ms=8000
            --seed=360021)
for arg in "${FLAGS[@]}"; do
  case "$arg" in
    --bench-out=*) BENCH="${arg#--bench-out=}" ;;
    --jobs=*|--rate=*|--n=*) CLIENT_ARGS+=("$arg") ;;
    *) SERVE_ARGS+=("$arg") ;;
  esac
done

echo "=== popbean-serve under chaos + outage, driven by popbean-stress ==="
serve_start serve "$SERVE_BIN" "${SERVE_ARGS[@]}" \
  --prom-out="$WORKDIR/serve.prom"
"$STRESS_BIN" --connect=127.0.0.1:"$SERVE_PORT" "${CLIENT_ARGS[@]}" \
  --bench-out="$BENCH" || {
  echo "popbean-stress reported a ledger violation" >&2
  exit 1
}
serve_stop serve "$SERVE_PID"
require_clean_drain serve

echo "=== validate the stress report and the server's exposition ==="
python3 - "$BENCH" <<'PY'
import sys
import json
report = json.load(open(sys.argv[1]))
totals = report["totals"]
jobs = report["config"]["jobs"]
assert totals["submitted"] == jobs, totals
assert totals["responses"] == jobs, "missing responses"
ledger = report["ledger"]
assert ledger["missing"] == 0, ledger
assert ledger["duplicates"] == 0, ledger
assert ledger["unknown"] == 0, ledger
assert ledger["invalid"] == 0, ledger
assert report["latency_ms"]["p50"] > 0, "degenerate latency"
print("OK:", {k: totals[k] for k in sorted(totals)})
PY
# The breaker opened during the outage AND closed after it.
require_fleet_counter "$WORKDIR/serve.prom" popbean_serve_breaker_opens_total 1
require_fleet_counter "$WORKDIR/serve.prom" popbean_serve_breaker_closes_total 1
