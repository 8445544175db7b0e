#!/bin/sh
# Fleet fault drill for `make cluster`: run a figure grid on a loopback
# fleet (tlsserve + two tlsworkers + a tlsreport client), SIGKILL one worker
# and then the coordinator mid-campaign, resume the coordinator from the
# WAL, and require the fleet-rendered report to be byte-identical to a
# serial tlsreport run's. Artifacts land in $CLUSTER_DRILL_DIR for CI
# upload on failure.
set -eu

GO="${GO:-go}"
dir="${CLUSTER_DRILL_DIR:-cluster-drill}"
port="${CLUSTER_DRILL_PORT:-8163}"
url="http://127.0.0.1:$port"
# ~5s of serial simulation: enough runway for both kills to land mid-flight.
report_args="-only fig9 -apps Tree,Euler,Track,Bdna -seed 3"
# Short lease TTL so the killed worker's leases requeue within the drill.
serve_args="-lease-ttl 2s -steal-after 1s"

rm -rf "$dir"
mkdir -p "$dir"
"$GO" build -o "$dir/tlsreport" ./cmd/tlsreport
"$GO" build -o "$dir/tlsserve" ./cmd/tlsserve
"$GO" build -o "$dir/tlsworker" ./cmd/tlsworker

echo "cluster-drill: serial baseline"
"$dir/tlsreport" $report_args -jobs 1 >"$dir/serial.out" 2>"$dir/serial.err"

echo "cluster-drill: starting coordinator on $url and two workers"
"$dir/tlsserve" -listen "127.0.0.1:$port" -cache "$dir/cache" \
	-journal "$dir/fleet.wal" $serve_args \
	>"$dir/serve1.out" 2>"$dir/serve1.err" &
serve_pid=$!
i=0
until grep -q "listening on" "$dir/serve1.out" 2>/dev/null; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "cluster-drill: coordinator never came up" >&2
		cat "$dir/serve1.err" >&2
		exit 1
	fi
	sleep 0.1
done

"$dir/tlsworker" -coordinator "$url" -name w1 -poll 100ms -observe \
	>"$dir/w1.out" 2>"$dir/w1.err" &
w1_pid=$!
"$dir/tlsworker" -coordinator "$url" -name w2 -poll 100ms \
	>"$dir/w2.out" 2>"$dir/w2.err" &
w2_pid=$!

"$dir/tlsreport" $report_args -coordinator "$url" \
	>"$dir/fleet.out" 2>"$dir/fleet.err" &
client_pid=$!

sleep 0.8
echo "cluster-drill: SIGKILL worker w2"
kill -9 "$w2_pid" 2>/dev/null ||
	echo "cluster-drill: w2 already gone; drill degenerates to a coordinator-crash run"
wait "$w2_pid" 2>/dev/null || true

sleep 0.8
echo "cluster-drill: SIGKILL coordinator"
kill -9 "$serve_pid" 2>/dev/null ||
	echo "cluster-drill: coordinator already gone (campaign may have outrun the drill)"
wait "$serve_pid" 2>/dev/null || true
sleep 0.3

echo "cluster-drill: resuming coordinator from the WAL"
"$dir/tlsserve" -listen "127.0.0.1:$port" -cache "$dir/cache" \
	-resume "$dir/fleet.wal" $serve_args \
	>"$dir/serve2.out" 2>"$dir/serve2.err" &
serve2_pid=$!

# The client re-submits pending keys on its own once the coordinator is
# back; bound the wait so a wedged fleet fails the drill instead of
# hanging CI.
i=0
while kill -0 "$client_pid" 2>/dev/null; do
	i=$((i + 1))
	if [ "$i" -gt 1200 ]; then
		echo "cluster-drill: fleet campaign did not finish within 120s" >&2
		kill -9 "$client_pid" "$w1_pid" "$serve2_pid" 2>/dev/null || true
		exit 1
	fi
	sleep 0.1
done
status=0
wait "$client_pid" || status=$?
if [ "$status" -ne 0 ]; then
	echo "cluster-drill: fleet client exited $status" >&2
	cat "$dir/fleet.err" >&2
	kill "$w1_pid" "$serve2_pid" 2>/dev/null || true
	exit 1
fi

# Drain the surviving worker (SIGTERM: finish nothing new, release leases,
# exit 130) and stop the resumed coordinator.
kill -TERM "$w1_pid" 2>/dev/null || true
wait "$w1_pid" 2>/dev/null || true
kill -TERM "$serve2_pid" 2>/dev/null || true
wait "$serve2_pid" 2>/dev/null || true

if ! grep -q "resuming" "$dir/serve2.err"; then
	echo "cluster-drill: resumed coordinator did not report WAL state" >&2
	cat "$dir/serve2.err" >&2
	exit 1
fi

if ! diff "$dir/fleet.out" "$dir/serial.out"; then
	echo "cluster-drill: fleet report differs from the serial run" >&2
	exit 1
fi
echo "cluster-drill: fleet report byte-identical to serial run through a worker kill and a coordinator kill+resume"
