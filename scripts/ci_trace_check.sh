#!/usr/bin/env bash
# End-to-end trace/exposition check for the serve path (DESIGN.md §13).
#
# Two legs:
#
#   1. popbean-serve --listen over 3 shards with 10% chaos, driven over TCP
#      by popbean-stress at 2× core saturation, writing --trace-out/
#      --prom-out/--slow-out/--responses-out. Validation joins the server's
#      artifacts: every ledgered response carries a nonzero trace id;
#      every *admitted* response's id resolves to exactly one complete
#      "job" async span tree (one 'b', one 'e') in the Chrome trace, with
#      at least one replica-execution span inside; rejected responses have
#      reject instants but no tree. The Prometheus exposition must parse
#      strictly, expose per-shard, fleet AND net series, keep cumulative bucket
#      counts monotone, roll counters up exactly (fleet = Σ shards), and
#      carry at least one histogram exemplar whose trace id belongs to a
#      recorded response.
#
#   2. popbean-serve --trace-out --prom-out fed NDJSON on stdin (the
#      network-facing front end): every v2 response line must echo a
#      trace_id that resolves to a complete span tree, and popbean-top
#      --once must render the written exposition (its strict parse is the
#      format gate).
#
# Usage: scripts/ci_trace_check.sh [build-dir]
set -e -u -o pipefail

source "$(dirname "$0")/serve_lib.sh"
BUILD="${1:-build}"
STRESS_BIN="$BUILD/tools/popbean-stress"
SERVE_BIN="$BUILD/tools/popbean-serve"
TOP_BIN="$BUILD/tools/popbean-top"
require_bins "$STRESS_BIN" "$SERVE_BIN" "$TOP_BIN"
THREADS="$(( $(nproc) * 2 ))"

echo "=== leg 1: serve at 2x cores, 3 shards, 10% chaos, traced ==="
serve_start leg1 "$SERVE_BIN" \
  --threads="$THREADS" --shards=3 --queue-capacity=64 --chaos=0.1 \
  --breaker-cooldown-ms=250 --quarantine-cooldown-ms=250 \
  --drain-deadline-ms=12000 --seed=360021 \
  --trace-out="$WORKDIR/trace.json" \
  --prom-out="$WORKDIR/metrics.prom" \
  --slow-out="$WORKDIR/slow.json" \
  --responses-out="$WORKDIR/responses.ndjson"
"$STRESS_BIN" --connect=127.0.0.1:"$SERVE_PORT" \
  --jobs=200 --connections=4 --rate=400 \
  --n=200 --eps=0.1 --deadline-ms=3000 \
  --bench-out="$WORKDIR/BENCH_stress.json"
serve_stop leg1 "$SERVE_PID"

echo "=== leg 1: join responses <-> span trees <-> exposition ==="
python3 - "$WORKDIR" <<'EOF'
import json, sys
workdir = sys.argv[1]

responses = [json.loads(l) for l in open(f"{workdir}/responses.ndjson")]
assert len(responses) == 200, f"expected 200 responses, got {len(responses)}"
trace = json.load(open(f"{workdir}/trace.json"))

begins, ends, replicas, rejects = {}, {}, {}, {}
for event in trace["traceEvents"]:
    ph, name = event.get("ph"), event.get("name")
    if ph not in ("b", "n", "e"):
        continue
    tid = event["id"]
    if name == "job":
        bucket = begins if ph == "b" else ends if ph == "e" else None
        if bucket is not None:
            bucket[tid] = bucket.get(tid, 0) + 1
    elif name == "replica" and ph == "b":
        replicas[tid] = replicas.get(tid, 0) + 1
    elif name == "reject" and ph == "n":
        rejects[tid] = rejects.get(tid, 0) + 1

trace_ids = set()
admitted = 0
for response in responses:
    tid = response["trace_id"]
    assert tid != 0, f"untraced response {response['id']}"
    assert tid not in trace_ids, f"trace id reused: {response['id']}"
    trace_ids.add(tid)
    hex_id = hex(tid)
    if response["outcome"] in ("overloaded", "invalid"):
        # Overloaded covers two causally different paths: refused at
        # admission (reject instant, no tree) or admitted then shed by the
        # ladder/deadline (a complete tree). Either way, no unclosed tree.
        if hex_id in begins:
            admitted += 1
            assert begins[hex_id] == 1 and ends.get(hex_id) == 1, \
                f"shed {response['id']}: unclosed span tree"
        else:
            assert hex_id in rejects, \
                f"rejected {response['id']} left no instant"
    else:
        admitted += 1
        assert begins.get(hex_id) == 1, \
            f"{response['id']}: {begins.get(hex_id, 0)} job-begin events"
        assert ends.get(hex_id) == 1, \
            f"{response['id']}: span tree never closed exactly once"
        assert replicas.get(hex_id, 0) >= 1, \
            f"{response['id']}: no replica execution span"
assert admitted > 0, "nothing was admitted"
# No orphan trees: every begin belongs to a ledgered response.
hex_ids = {hex(t) for t in trace_ids}
for tid in begins:
    assert tid in hex_ids, f"span tree {tid} has no response"

prom = open(f"{workdir}/metrics.prom").read()
shards, exemplars = set(), []
fleet_completed, shard_completed = None, 0.0
buckets = {}
for line in prom.splitlines():
    if line.startswith("# exemplar "):
        parts = line.split()
        exemplars.append(int(parts[-1], 16))
        continue
    if not line or line.startswith("#"):
        continue
    name_labels, value = line.rsplit(" ", 1)
    if 'shard="' in name_labels:
        shards.add(name_labels.split('shard="')[1].split('"')[0])
    if name_labels.startswith("popbean_serve_completed_total"):
        if 'shard="fleet"' in name_labels:
            fleet_completed = float(value)
        else:
            shard_completed += float(value)
    if name_labels.startswith("popbean_serve_run_ms_bucket"):
        shard = name_labels.split('shard="')[1].split('"')[0]
        le = name_labels.split('le="')[1].split('"')[0]
        le = float("inf") if le == "+Inf" else float(le)
        buckets.setdefault(shard, []).append((le, float(value)))

assert shards == {"0", "1", "2", "fleet", "net"}, f"shard labels: {shards}"
assert fleet_completed is not None and fleet_completed == shard_completed, \
    f"fleet rollup {fleet_completed} != shard sum {shard_completed}"
for shard, series in buckets.items():
    series.sort()
    for (_, a), (_, b) in zip(series, series[1:]):
        assert a <= b, f"non-monotone cumulative buckets on shard {shard}"
assert exemplars, "no histogram exemplars in the exposition"
unresolved = [t for t in exemplars if t not in trace_ids]
assert not unresolved, f"exemplar trace ids without responses: {unresolved}"

slow = json.load(open(f"{workdir}/slow.json"))
assert slow["entries"], "slow log is empty"
for entry in slow["entries"]:
    assert entry["trace_id"] in trace_ids, f"slow-log orphan: {entry}"

print(f"OK: {admitted} admitted jobs -> {admitted} complete span trees, "
      f"{len(exemplars)} exemplars resolved, "
      f"{len(slow['entries'])} slow-log entries joined")
EOF

echo "=== leg 2: popbean-serve front end, traced + exposed ==="
python3 - "$WORKDIR" <<'EOF'
import json, sys
workdir = sys.argv[1]
with open(f"{workdir}/requests.ndjson", "w") as f:
    for i in range(60):
        f.write(json.dumps({
            "v": 2, "id": f"req-{i}", "n": 200, "eps": 0.1,
            "seed": 100 + i, "deadline_ms": 5000}) + "\n")
EOF
"$SERVE_BIN" --threads=4 --shards=2 \
  --trace-out="$WORKDIR/serve_trace.json" \
  --prom-out="$WORKDIR/serve.prom" \
  < "$WORKDIR/requests.ndjson" > "$WORKDIR/serve_responses.ndjson"

python3 - "$WORKDIR" <<'EOF'
import json, sys
workdir = sys.argv[1]
responses = [json.loads(l) for l in open(f"{workdir}/serve_responses.ndjson")]
assert len(responses) == 60, f"expected 60 response lines, got {len(responses)}"
trace = json.load(open(f"{workdir}/serve_trace.json"))
begins, ends = {}, {}
for event in trace["traceEvents"]:
    if event.get("name") != "job":
        continue
    if event.get("ph") == "b":
        begins[event["id"]] = begins.get(event["id"], 0) + 1
    elif event.get("ph") == "e":
        ends[event["id"]] = ends.get(event["id"], 0) + 1
for response in responses:
    tid = hex(response["trace_id"])
    assert response["trace_id"] != 0, response["id"]
    if response["outcome"] in ("overloaded", "invalid"):
        continue
    assert begins.get(tid) == 1 and ends.get(tid) == 1, \
        f"{response['id']}: incomplete span tree {tid}"
print(f"OK: all {len(responses)} served responses resolve to span trees")
EOF

echo "=== leg 2: popbean-top renders the exposition (strict-parse gate) ==="
"$TOP_BIN" --file="$WORKDIR/serve.prom" --once
echo "trace check passed"
