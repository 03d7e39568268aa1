#!/usr/bin/env bash
# The JSON-lines → segmented-WAL upgrade, end to end on the real binaries:
# opprenticed refuses a data directory that still holds <name>.wal files,
# `opprenticectl wal migrate` imports them, and the daemon then serves the
# series with the fixture's points and labels. Run via `make upgrade-smoke`.
set -euo pipefail
cd "$(dirname "$0")/.."
GO=${GO:-go}

tmp=$(mktemp -d)
pid=
cleanup() {
	if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; fi
	rm -rf "$tmp"
}
trap cleanup EXIT
fail() { echo "upgrade-smoke: FAIL: $*" >&2; exit 1; }

$GO build -o "$tmp/opprenticed" ./cmd/opprenticed
$GO build -o "$tmp/opprenticectl" ./cmd/opprenticectl
mkdir "$tmp/data"
cp cmd/opprenticectl/testdata/legacy/*.wal "$tmp/data/"

# 1. The unmigrated directory is refused: exit 1, naming the files and the fix.
code=0
timeout 30 "$tmp/opprenticed" -addr 127.0.0.1:0 -data-dir "$tmp/data" 2>"$tmp/refusal.log" || code=$?
[ "$code" -eq 1 ] || fail "opprenticed on unmigrated logs exited $code, want 1: $(cat "$tmp/refusal.log")"
for want in lat.wal pv.wal "opprenticectl wal migrate"; do
	grep -qF -- "$want" "$tmp/refusal.log" || fail "refusal does not mention '$want': $(cat "$tmp/refusal.log")"
done
[ ! -e "$tmp/data/shard-000" ] || fail "the refused start wrote to the data directory"

# 2. One-shot offline upgrade.
"$tmp/opprenticectl" wal migrate -data-dir "$tmp/data"
[ -z "$(find "$tmp/data" -maxdepth 1 -name '*.wal')" ] || fail "*.wal files remain after wal migrate"

# 3. The daemon starts and serves what the logs held.
port=
for p in $(shuf -i 20000-60000 -n 20); do
	if ! (exec 3<>"/dev/tcp/127.0.0.1/$p") 2>/dev/null; then port=$p; break; fi
done
[ -n "$port" ] || fail "no free loopback port found"
"$tmp/opprenticed" -addr "127.0.0.1:$port" -data-dir "$tmp/data" 2>"$tmp/daemon.log" &
pid=$!
ctl() { "$tmp/opprenticectl" -server "http://127.0.0.1:$port" "$@"; }
for _ in $(seq 1 100); do
	ctl status pv >/dev/null 2>&1 && break
	kill -0 "$pid" 2>/dev/null || fail "opprenticed exited after migration: $(cat "$tmp/daemon.log")"
	sleep 0.1
done
pv=$(ctl status pv) || fail "status pv: $(cat "$tmp/daemon.log")"
lat=$(ctl status lat) || fail "status lat: $(cat "$tmp/daemon.log")"
case "$pv" in "pv: 8 points (60s interval), 1 anomalous in 1 windows,"*) ;; *) fail "status pv = $pv" ;; esac
case "$lat" in "lat: 4 points (300s interval), 0 anomalous in 0 windows,"*) ;; *) fail "status lat = $lat" ;; esac

kill -TERM "$pid"
code=0
wait "$pid" || code=$?
pid=
[ "$code" -eq 0 ] || fail "opprenticed exited $code on SIGTERM: $(cat "$tmp/daemon.log")"
echo "upgrade-smoke: OK (refused unmigrated logs, migrated 2 series, served $pv)"
