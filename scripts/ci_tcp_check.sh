#!/usr/bin/env bash
# End-to-end TCP front-end check for the serve path (DESIGN.md §14).
#
# Four legs:
#
#   1. Bit-identical decision payloads: the same request file served once
#      over stdin and once over a TCP socket (k=1, no remotes) must
#      produce the same multiset of responses field-for-field once the
#      wall-clock fields (queue_ms/run_ms) and the per-process trace ids
#      are masked. The file holds two blank lines, one CRLF-terminated
#      request and one duplicated id, so both front ends must answer every
#      line and agree on byte offsets.
#
#   2. A two-process fleet — a front popbean-serve whose single local
#      shard is deliberately starved (1 thread, queue capacity 2) plus a
#      --shard-remote sibling process — driven by popbean-stress with 10%
#      connection chaos (abrupt closes, half-closes, garbage,
#      slow writers, reconnect storms). Mid-run the remote shard is
#      SIGKILLed, held down until the front's Prometheus dump shows its
#      link breaker open (10 s at most), and revived on the same port: the
#      breaker must open during the outage and close after the revival,
#      with spill admissions on both sides of it. The front is then
#      SIGTERMed under load — the drain path, not a clean EOF — and every
#      exposition file must still be written (the final-flush contract).
#
#   3. popbean-stress --tcp-audit joins the client's --submitted-out
#      journal against the front's --responses-out ledger: every strict
#      id exactly once, no id ever twice (exactly-one-response).
#
#   4. A three-way responses <-> trace <-> prom join across processes:
#      fleet Prometheus rollups must equal the sum of per-shard series in
#      BOTH processes, the front's breaker/spill counters must show the
#      outage and the recovery, every remote-served job in the front's
#      ledger must appear under its spill wire id ("s<seq>!<id>") in a
#      remote incarnation's ledger, and the propagated trace ids of
#      remote-served jobs must resolve to span trees recorded by the
#      remote process.
#
# Usage: scripts/ci_tcp_check.sh [build-dir]
set -e -u -o pipefail

source "$(dirname "$0")/serve_lib.sh"
BUILD="${1:-build}"
SERVE_BIN="$BUILD/tools/popbean-serve"
STRESS_BIN="$BUILD/tools/popbean-stress"
require_bins "$SERVE_BIN" "$STRESS_BIN"

echo "=== leg 1: stdin vs TCP bit-identical decision payloads (k=1) ==="
python3 - "$WORKDIR" <<'EOF'
import json, sys
workdir = sys.argv[1]
def request(i):
    return json.dumps({
        "v": 2, "id": f"req-{i}", "n": 200, "eps": 0.1,
        "seed": 9000 + i, "replicates": 2,
        "deadline_ms": 10000}) + "\n"
with open(f"{workdir}/requests.ndjson", "w") as f:
    for i in range(40):
        f.write(request(i))
        if i == 19:
            f.write("\n\n")        # two blank lines: two invalid responses
    f.write(request(40).replace("\n", "\r\n"))  # CRLF-terminated request
    f.write(request(7))           # duplicate id: one invalid response
EOF
"$SERVE_BIN" --threads=2 \
  < "$WORKDIR/requests.ndjson" > "$WORKDIR/stdin_responses.ndjson"

serve_start leg1 "$SERVE_BIN" --threads=2 \
  --responses-out="$WORKDIR/tcp_responses.ndjson"
LEG1_PID=$SERVE_PID

python3 - "$WORKDIR" "$SERVE_PORT" <<'EOF'
import socket, sys
workdir, port = sys.argv[1], int(sys.argv[2])
payload = open(f"{workdir}/requests.ndjson", "rb").read()
sock = socket.create_connection(("127.0.0.1", port), timeout=30)
sock.sendall(payload)
sock.shutdown(socket.SHUT_WR)
received = b""
while True:
    chunk = sock.recv(65536)
    if not chunk:
        break
    received += chunk
sock.close()
lines = [l for l in received.decode().splitlines() if l]
assert len(lines) == 44, f"expected 44 TCP responses, got {len(lines)}"
EOF

serve_stop leg1 "$LEG1_PID"

python3 - "$WORKDIR" <<'EOF'
import json, sys
workdir = sys.argv[1]
def decisions(path):
    out = []
    for line in open(path):
        response = json.loads(line)
        # Mask wall-clock and per-process identity; everything else — the
        # decision payload — must match bit-for-bit.
        for field in ("queue_ms", "run_ms", "trace_id"):
            response.pop(field, None)
        out.append(json.dumps(response, sort_keys=True))
    return sorted(out)
stdin_leg = decisions(f"{workdir}/stdin_responses.ndjson")
tcp_leg = decisions(f"{workdir}/tcp_responses.ndjson")
assert len(stdin_leg) == 44, f"expected 44 stdin responses, got {len(stdin_leg)}"
assert stdin_leg == tcp_leg, (
    f"responses diverged:\n  stdin only: {set(stdin_leg) - set(tcp_leg)}\n"
    f"  tcp only:   {set(tcp_leg) - set(stdin_leg)}")
print(f"OK: {len(stdin_leg)} responses identical across front ends")
EOF

echo "=== leg 2: 2-process fleet, 10% chaos, SIGKILLed + revived remote ==="
# The remote shard: a plain single-shard popbean-serve. Its first
# incarnation dies by SIGKILL; the second rebinds the same port.
start_remote() {
  local incarnation="$1"
  shift
  serve_start "remote$incarnation" "$SERVE_BIN" --threads=2 \
    --queue-capacity=128 \
    --prom-out="$WORKDIR/remote$incarnation.prom" --prom-interval-ms=60000 \
    --trace-out="$WORKDIR/remote$incarnation.trace.json" --trace-cap=65536 \
    --responses-out="$WORKDIR/remote$incarnation.responses.ndjson" "$@"
}
start_remote 1
REMOTE1_PID=$SERVE_PID
REMOTE_PORT=$SERVE_PORT

# The front: its only local shard is starved on purpose (1 worker, queue
# capacity 2) so sustained load MUST spill to the remote slot — the
# rendezvous owner of the stress family is slot 0, and the spill walk is
# what crosses the process boundary. prom-interval-ms is set beyond the
# run's length so the exposition file can only exist if the final flush
# on the drain path wrote it (the regression this leg guards).
serve_start front "$SERVE_BIN" --threads=1 --queue-capacity=2 \
  --shard-remote=127.0.0.1:"$REMOTE_PORT" \
  --breaker-failures=3 --breaker-cooldown-ms=300 \
  --read-deadline-ms=1000 \
  --prom-out="$WORKDIR/front.prom" --prom-interval-ms=60000 \
  --trace-out="$WORKDIR/front.trace.json" --trace-cap=65536 \
  --slow-out="$WORKDIR/front.slow.json" \
  --responses-out="$WORKDIR/front.responses.ndjson"
FRONT_PID=$SERVE_PID

"$STRESS_BIN" --connect=127.0.0.1:"$SERVE_PORT" \
  --jobs=300 --connections=8 --rate=100 \
  --n=20000 --eps=0.05 --deadline-ms=4000 \
  --net-chaos=0.1 --net-chaos-seed=11 \
  --submitted-out="$WORKDIR/submitted.ndjson" \
  --bench-out="$WORKDIR/BENCH_tcp.json" \
  >"$WORKDIR/stress.log" 2>&1 &
STRESS_PID=$!

sleep 1.0
echo "--- SIGKILL remote shard (pid $REMOTE1_PID) mid-run ---"
kill -KILL "$REMOTE1_PID"
wait "$REMOTE1_PID" 2>/dev/null || true
# Hold the remote down until the front's link breaker has opened, for at
# most 10 s. Each SIGUSR1 makes the front dump front.prom, its trace and
# its slow log (the slow log last); the dumps are deleted again afterwards,
# so the final-flush check below still proves the drain path wrote them.
front_dumps=("$WORKDIR/front.prom" "$WORKDIR/front.trace.json"
             "$WORKDIR/front.slow.json")
hold_until=$((SECONDS + 10))
while (( SECONDS < hold_until )); do
  rm -f "${front_dumps[@]}"
  kill -USR1 "$FRONT_PID"
  while [[ ! -f "$WORKDIR/front.slow.json" ]] && (( SECONDS < hold_until )); do
    sleep 0.02
  done
  if awk '/^popbean_remote_breaker_opens_total\{/ && /remote="1"/ { opens += $NF }
          END { exit !(opens >= 1) }' "$WORKDIR/front.prom" 2>/dev/null; then
    break
  fi
done
rm -f "${front_dumps[@]}"
echo "--- revive remote shard on port $REMOTE_PORT ---"
start_remote 2 --listen=127.0.0.1:"$REMOTE_PORT"
REMOTE2_PID=$SERVE_PID

if ! wait "$STRESS_PID"; then
  echo "popbean-stress reported a client-side ledger violation" >&2
  cat "$WORKDIR/stress.log" >&2
  exit 1
fi
cat "$WORKDIR/stress.log"

# Drain the front while the fleet is still warm: SIGTERM, not EOF, so the
# final-flush contract is exercised on the signal path.
serve_stop front "$FRONT_PID"
serve_stop remote2 "$REMOTE2_PID"

for artifact in front.prom front.trace.json front.slow.json \
                front.responses.ndjson remote2.prom; do
  if [[ ! -s "$WORKDIR/$artifact" ]]; then
    echo "final flush did not write $artifact" >&2
    exit 1
  fi
done
echo "OK: drain wrote every exposition file on the signal path"

echo "=== leg 3: exactly-one-response ledger join ==="
"$STRESS_BIN" --tcp-audit \
  --submitted="$WORKDIR/submitted.ndjson" \
  --ledger="$WORKDIR/front.responses.ndjson"

echo "=== leg 4: responses <-> trace <-> prom join across processes ==="
python3 - "$WORKDIR" <<'EOF'
import glob, json, sys
workdir = sys.argv[1]

def series(path):
    out = {}
    for line in open(path):
        if not line.strip() or line.startswith("#"):
            continue
        name_labels, value = line.rsplit(" ", 1)
        out[name_labels] = float(value)
    return out

def label(name_labels, key):
    marker = f'{key}="'
    if marker not in name_labels:
        return None
    return name_labels.split(marker)[1].split('"')[0]

def assert_fleet_rollup(prom, what):
    # Every *_total counter's fleet series must equal the sum of its
    # numeric-shard series — the rollup is computed, never sampled.
    sums, fleets = {}, {}
    for name_labels, value in prom.items():
        if "_total" not in name_labels:
            continue
        shard = label(name_labels, "shard")
        if shard is None or label(name_labels, "remote") is not None:
            continue
        metric = name_labels.split("{")[0]
        if shard == "fleet":
            fleets[metric] = fleets.get(metric, 0.0) + value
        elif shard.isdigit():
            sums[metric] = sums.get(metric, 0.0) + value
    assert fleets, f"{what}: no fleet counter series"
    for metric, total in sums.items():
        assert fleets.get(metric) == total, (
            f"{what}: {metric} fleet={fleets.get(metric)} != sum {total}")
    return len(sums)

front = series(f"{workdir}/front.prom")
remote = series(f"{workdir}/remote2.prom")
checked = assert_fleet_rollup(front, "front") \
    + assert_fleet_rollup(remote, "remote")

def front_counter(metric, **labels):
    want = {f'{k}="{v}"' for k, v in labels.items()}
    total = 0.0
    found = False
    for name_labels, value in front.items():
        if name_labels.split("{")[0] == metric and \
                all(w in name_labels for w in want):
            total += value
            found = True
    assert found, f"front.prom lacks {metric} {labels}"
    return total

# The outage and the recovery, as the front's link breaker saw them.
opens = front_counter("popbean_remote_breaker_opens_total", remote="1")
closes = front_counter("popbean_remote_breaker_closes_total", remote="1")
assert opens >= 1, f"breaker never opened across the SIGKILL ({opens})"
assert closes >= 1, f"breaker never closed after the revival ({closes})"

# Spill reached the remote slot on both sides of the outage, and some
# spill attempts died against the dead socket.
remote_admitted = front_counter("popbean_router_remote_admitted_total",
                                shard="fleet")
redirected = front_counter("popbean_router_redirected_total", shard="fleet")
forwarded = front_counter("popbean_remote_forwarded_total", remote="1")
remote_responses = front_counter("popbean_remote_responses_total", remote="1")
assert remote_admitted >= 1, "no job was ever admitted by the remote slot"
assert redirected >= 1, "the spill walk never redirected a job"
assert remote_responses >= 1, "no response ever came back over the link"
assert forwarded >= remote_responses, (front, remote)

# The TCP front end itself was exercised, chaos included.
accepted = front_counter("popbean_net_accepted_total", shard="net")
assert accepted >= 8, f"expected >= 8 accepted connections, got {accepted}"

# Ledger <-> remote-ledger join: every remote-served job in the front's
# ledger must appear in a remote incarnation's ledger under its spill
# wire id "s<seq>!<client-id>". remote_lost/shutdown flushes are
# front-side syntheses (error set) and are excluded.
front_responses = [json.loads(l)
                   for l in open(f"{workdir}/front.responses.ndjson")]
remote_wire_ids = set()
for path in sorted(glob.glob(f"{workdir}/remote*.responses.ndjson")):
    for line in open(path):
        remote_wire_ids.add(json.loads(line)["id"])
remote_suffixes = {wire_id.split("!", 1)[1]
                   for wire_id in remote_wire_ids if "!" in wire_id}
link_failures = {"remote_lost", "shutdown"}
remote_served = [r for r in front_responses
                 if r["shard"] == 1 and r.get("error") not in link_failures]
assert remote_served, "front ledger shows nothing served by the remote"
unmatched = [r["id"] for r in remote_served
             if r["id"] not in remote_suffixes]
assert not unmatched, (
    f"remote-served responses missing from remote ledgers: {unmatched[:5]}")

# Trace join: the trace ids the front propagated in the spill frames must
# resolve to span trees recorded by the remote process — the causal link
# survives the process boundary. The SIGKILLed first incarnation took its
# in-memory trace buffer with it (that is what SIGKILL means), so the
# join covers the jobs the revived incarnation served: their wire ids
# appear in remote2's ledger, and remote2's trace file must hold their
# spans.
revived_suffixes = set()
for line in open(f"{workdir}/remote2.responses.ndjson"):
    wire_id = json.loads(line)["id"]
    if "!" in wire_id:
        revived_suffixes.add(wire_id.split("!", 1)[1])
remote_span_ids = set()
for event in json.load(open(f"{workdir}/remote2.trace.json"))["traceEvents"]:
    if event.get("ph") in ("b", "e", "n"):
        remote_span_ids.add(event["id"])
remote_done = [r for r in remote_served
               if r["outcome"] == "done" and r["id"] in revived_suffixes]
assert remote_done, "the revived remote never completed a spilled job"
for response in remote_done:
    assert response["trace_id"] != 0, f"untraced {response['id']}"
    assert hex(response["trace_id"]) in remote_span_ids, (
        f"{response['id']}: trace id {hex(response['trace_id'])} "
        f"propagated to the remote left no span there")

# The chaos actually ran: the stress report's per-connection kinds must
# include at least one misbehaving connection.
bench = json.load(open(f"{workdir}/BENCH_tcp.json"))
chaotic = {k: v for k, v in bench["chaos_kinds"].items() if k != "clean"}
assert chaotic, f"no chaotic connections in {bench['chaos_kinds']}"

print(f"OK: {checked} fleet rollups exact, breaker opens={opens:.0f} "
      f"closes={closes:.0f}, remote admitted={remote_admitted:.0f} "
      f"redirected={redirected:.0f}, {len(remote_served)} remote-served "
      f"responses joined to remote ledgers, {len(remote_done)} spilled "
      f"span trees resolved across the process boundary, "
      f"chaos kinds: {chaotic}")
EOF

echo "tcp check passed"
