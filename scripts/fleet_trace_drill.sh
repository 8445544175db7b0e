#!/bin/sh
# Fleet tracing drill for `make fleet-trace`: run a small figure grid on a
# traced loopback fleet (tlsserve -trace + two tlsworker -trace), require
# the coordinator to write one merged Perfetto trace that tlstrace
# -validate accepts with multiple processes and lease->attempt->complete
# flow arrows, snapshot the coordinator's phase-latency histograms from
# /metrics, and keep the structured logs as artifacts. A final
# panic-injection step asserts the always-on flight recorder dumps the last
# spans into the quarantine manifest. Artifacts land in $FLEET_TRACE_DIR
# for CI upload.
set -eu

GO="${GO:-go}"
dir="${FLEET_TRACE_DIR:-fleet-trace}"
port="${FLEET_TRACE_PORT:-8173}"
url="http://127.0.0.1:$port"
report_args="-only fig9 -apps Tree,Euler -seed 3"

rm -rf "$dir"
mkdir -p "$dir"
"$GO" build -o "$dir/tlsreport" ./cmd/tlsreport
"$GO" build -o "$dir/tlsserve" ./cmd/tlsserve
"$GO" build -o "$dir/tlsworker" ./cmd/tlsworker
"$GO" build -o "$dir/tlstrace" ./cmd/tlstrace

echo "fleet-trace: starting traced coordinator on $url and two traced workers"
"$dir/tlsserve" -listen "127.0.0.1:$port" -cache "$dir/cache" \
	-journal "$dir/fleet.wal" -trace "$dir/fleet.trace.json" \
	-exit-when-done \
	>"$dir/serve.out" 2>"$dir/serve.err" &
serve_pid=$!
i=0
until grep -q "listening on" "$dir/serve.out" 2>/dev/null; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "fleet-trace: coordinator never came up" >&2
		cat "$dir/serve.err" >&2
		exit 1
	fi
	sleep 0.1
done

"$dir/tlsworker" -coordinator "$url" -name tw1 -poll 100ms -trace -observe \
	>"$dir/w1.out" 2>"$dir/w1.err" &
w1_pid=$!
"$dir/tlsworker" -coordinator "$url" -name tw2 -poll 100ms -trace \
	>"$dir/w2.out" 2>"$dir/w2.err" &
w2_pid=$!

# Snapshot the phase-latency histograms mid-campaign (retried until the
# campaign has produced completions, so the buckets are populated).
( i=0
  while [ "$i" -lt 300 ]; do
	i=$((i + 1))
	if curl -sf "$url/metrics" >"$dir/metrics.txt" 2>/dev/null &&
		grep -q "tls_fleet_attempt_wall_ms" "$dir/metrics.txt"; then
		exit 0
	fi
	sleep 0.1
  done ) &
metrics_pid=$!

"$dir/tlsreport" $report_args -coordinator "$url" \
	>"$dir/fleet.out" 2>"$dir/fleet.err"

# -exit-when-done: the coordinator writes the merged trace and exits once
# every job has an outcome.
i=0
while kill -0 "$serve_pid" 2>/dev/null; do
	i=$((i + 1))
	if [ "$i" -gt 300 ]; then
		echo "fleet-trace: coordinator did not exit after campaign completion" >&2
		kill -9 "$serve_pid" 2>/dev/null || true
		exit 1
	fi
	sleep 0.1
done
wait "$serve_pid" 2>/dev/null || true
wait "$metrics_pid" 2>/dev/null || true
kill -TERM "$w1_pid" "$w2_pid" 2>/dev/null || true
wait "$w1_pid" "$w2_pid" 2>/dev/null || true

if [ ! -s "$dir/fleet.trace.json" ]; then
	echo "fleet-trace: coordinator wrote no fleet trace" >&2
	cat "$dir/serve.err" >&2
	exit 1
fi

echo "fleet-trace: validating the merged fleet trace"
"$dir/tlstrace" -validate "$dir/fleet.trace.json" | tee "$dir/validate.txt"
# The merged trace must span multiple processes (coordinator + workers)
# and carry flow arrows; tlstrace prints "N processes" and "N flows".
if grep -Eq "\(1 processes," "$dir/validate.txt"; then
	echo "fleet-trace: merged trace has only one process lane" >&2
	exit 1
fi
if grep -Eq " 0 flows," "$dir/validate.txt"; then
	echo "fleet-trace: merged trace has no lease->attempt->complete flows" >&2
	exit 1
fi

if [ -s "$dir/metrics.txt" ] &&
	grep -q "tls_fleet_queue_wait_ms" "$dir/metrics.txt"; then
	echo "fleet-trace: phase-latency histograms captured from /metrics"
else
	echo "fleet-trace: warning: /metrics snapshot missed the campaign window" >&2
fi

# Structured-log sanity: the fleet CLIs log via slog with component and
# campaign correlation attributes.
if ! grep -q "component=tlsserve" "$dir/serve.err"; then
	echo "fleet-trace: coordinator logs are not structured" >&2
	exit 1
fi
if ! grep -q "component=tlsworker" "$dir/w1.err"; then
	echo "fleet-trace: worker logs are not structured" >&2
	exit 1
fi

echo "fleet-trace: panic-injection: flight recorder must land in the quarantine manifest"
# A -run pattern that matches nothing still exits 0, so require each named
# post-mortem test to report its own PASS line.
"$GO" test ./internal/exp/ -v -count=1 \
	-run "^(TestFlightRecorderDumpOnPanic|TestQuarantineManifestOnlyOnFirst)$" \
	>"$dir/postmortem-tests.txt" 2>&1 || { cat "$dir/postmortem-tests.txt" >&2; exit 1; }
for t in TestFlightRecorderDumpOnPanic TestQuarantineManifestOnlyOnFirst; do
	if ! grep -q -- "--- PASS: $t " "$dir/postmortem-tests.txt"; then
		echo "fleet-trace: post-mortem test $t did not run and pass" >&2
		cat "$dir/postmortem-tests.txt" >&2
		exit 1
	fi
done

echo "fleet-trace: merged fleet trace validated; open $dir/fleet.trace.json at ui.perfetto.dev"
