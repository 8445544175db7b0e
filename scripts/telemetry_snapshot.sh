#!/bin/sh
# Telemetry snapshot for CI: run a small sweep with the -listen dashboard
# enabled and capture /metrics (Prometheus text) and /progress (JSON) while
# the worker pool drains. The snapshots land in $1 (default
# telemetry-snapshot/) for artifact upload.
set -eu

GO="${GO:-go}"
out="${1:-telemetry-snapshot}"
port="${TLS_TELEMETRY_PORT:-18230}"

rm -rf "$out"
mkdir -p "$out"
"$GO" build -o "$out/tlssweep" ./cmd/tlssweep

"$out/tlssweep" -app Euler -param depprob -values 0,0.05,0.1,0.2 \
	-listen "127.0.0.1:$port" \
	>"$out/sweep.csv" 2>"$out/sweep.err" &
pid=$!

# Scrape as soon as the listener answers; keep the last complete pair
# (scrapes race campaign exit, so stage to temp files and promote only on
# success — a half-written scrape must not clobber a good one).
got=""
i=0
while [ "$i" -lt 100 ]; do
	if curl -fsS "http://127.0.0.1:$port/metrics" >"$out/.metrics.tmp" 2>/dev/null &&
		curl -fsS "http://127.0.0.1:$port/progress" >"$out/.progress.tmp" 2>/dev/null; then
		mv "$out/.metrics.tmp" "$out/metrics.txt"
		mv "$out/.progress.tmp" "$out/progress.json"
		got=1
	fi
	kill -0 "$pid" 2>/dev/null || break
	sleep 0.1
	i=$((i + 1))
done
rm -f "$out/.metrics.tmp" "$out/.progress.tmp"

status=0
wait "$pid" || status=$?
if [ "$status" -ne 0 ]; then
	echo "telemetry_snapshot: sweep failed ($status)" >&2
	cat "$out/sweep.err" >&2
	exit "$status"
fi
if [ -z "$got" ]; then
	echo "telemetry_snapshot: endpoint never answered" >&2
	cat "$out/sweep.err" >&2
	exit 1
fi
# The folded dashboard: the coordinator's job census and simulated cycles,
# and at least one tls_run_* counter (the sweep's per-job obs registries
# reached the dashboard through the local worker's heartbeats).
for want in '^tls_fleet_jobs_total ' '^tls_run_' '^tls_fleet_sim_cycles '; do
	grep -q "$want" "$out/metrics.txt" || {
		echo "telemetry_snapshot: /metrics has no line matching $want" >&2
		exit 1
	}
done
for want in '"campaign"' '"recent"' '"summary"'; do
	grep -q "$want" "$out/progress.json" || {
		echo "telemetry_snapshot: /progress is missing the $want field" >&2
		exit 1
	}
done
echo "telemetry_snapshot: wrote $out/metrics.txt and $out/progress.json"
