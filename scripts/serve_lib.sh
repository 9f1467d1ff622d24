# Helpers shared by the CI scripts that run popbean-serve --listen in the
# background and drive it over TCP. Sourcing it creates the scratch
# directory WORKDIR and installs an EXIT trap that kills every server still
# running and removes WORKDIR.

WORKDIR="$(mktemp -d)"
SERVE_PIDS=()
serve_cleanup() {
  for pid in "${SERVE_PIDS[@]:-}"; do
    kill -KILL "$pid" 2>/dev/null || true
  done
  rm -rf "$WORKDIR"
}
trap serve_cleanup EXIT

# split_build_arg [build-dir] [--FLAG=VALUE ...]: sets BUILD (default
# build) and FLAGS, the flags after it.
split_build_arg() {
  BUILD=build
  if [[ $# -gt 0 && "$1" != --* ]]; then
    BUILD="$1"
    shift
  fi
  FLAGS=("$@")
}

# require_bins BIN...: exits 2 unless every BIN has been built.
require_bins() {
  local bin
  for bin in "$@"; do
    if [[ ! -x "$bin" ]]; then
      echo "$bin not found (build it first)" >&2
      exit 2
    fi
  done
}

# Polls PORT_FILE until the server has written its bound port.
await_port() {
  local port_file="$1" pid="$2"
  for _ in $(seq 1 100); do
    if [[ -s "$port_file" ]]; then
      cat "$port_file"
      return 0
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "server $pid died before writing $port_file" >&2
      return 1
    fi
    sleep 0.05
  done
  echo "timed out waiting for $port_file" >&2
  return 1
}

# serve_start NAME BIN [FLAG...]: starts `BIN --listen=127.0.0.1:0 FLAG...`
# in the background (a later --listen in FLAG wins), stderr to
# $WORKDIR/NAME.log, and sets SERVE_PID and SERVE_PORT.
serve_start() {
  local name="$1" bin="$2"
  shift 2
  "$bin" --listen=127.0.0.1:0 --port-file="$WORKDIR/$name.port" "$@" \
    2>"$WORKDIR/$name.log" &
  SERVE_PID=$!
  SERVE_PIDS+=("$SERVE_PID")
  SERVE_PORT="$(await_port "$WORKDIR/$name.port" "$SERVE_PID")"
}

# serve_stop NAME PID: SIGTERM, then require exit status 3 (drained after
# a signal).
serve_stop() {
  local name="$1" pid="$2" status=0
  kill -TERM "$pid"
  wait "$pid" || status=$?
  if [[ "$status" -ne 3 ]]; then
    echo "$name exited $status (expected 3 = drained after signal)" >&2
    cat "$WORKDIR/$name.log" >&2
    return 1
  fi
}

# require_clean_drain NAME: the server never had to force its drain.
require_clean_drain() {
  if grep -q "drain forced" "$WORKDIR/$1.log"; then
    cat "$WORKDIR/$1.log" >&2
    return 1
  fi
  echo "OK: $1 drained clean"
}

# require_fleet_counter PROM NAME MIN: the fleet rollup of counter NAME in
# exposition file PROM (0 when absent) is at least MIN.
require_fleet_counter() {
  local prom="$1" name="$2" min="$3" value
  value="$(awk -v series="$name{" '
    !/^#/ && index($0, series) == 1 && /shard="fleet"/ { v = $NF }
    END { print v + 0 }' "$prom")"
  if ! awk -v v="$value" -v min="$min" 'BEGIN { exit !(v >= min) }'; then
    echo "FAIL: $name{shard=\"fleet\"} = $value, expected >= $min" >&2
    return 1
  fi
  echo "OK: $name{shard=\"fleet\"} = $value"
}
