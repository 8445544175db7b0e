#!/bin/sh
# Network-chaos drill for `make cluster-chaos`: run a figure grid on a
# loopback fleet whose every link misbehaves — the coordinator's listener
# delays and refuses connections (partition windows), both healthy workers
# speak through hostile transports (drops, delays, duplicates, reordering,
# truncation, corruption), a third worker is fully byzantine (every request
# body corrupted), and one healthy worker is SIGKILL'd mid-campaign. The
# fleet-rendered report must still be byte-identical to a serial tlsreport
# run, and the byzantine worker must end up circuit-broken.
#
# Every fault plan is seeded (CHAOS_SEED, default 7): the same seed arms the
# identical fault schedule on every run. The armed plans are recorded in
# $dir/chaos.plan for CI artifact upload.
set -eu

GO="${GO:-go}"
dir="${CLUSTER_CHAOS_DIR:-cluster-chaos}"
port="${CLUSTER_CHAOS_PORT:-8173}"
seed="${CHAOS_SEED:-7}"
url="http://127.0.0.1:$port"
report_args="-only fig9 -apps Tree,Euler,Track,Bdna -seed 3"
# Short lease TTL so killed/flapping workers' leases requeue quickly, and a
# short quarantine so breaker probation cycles happen within the drill.
serve_args="-lease-ttl 2s -steal-after 1s -quarantine-for 2s"

rm -rf "$dir"
mkdir -p "$dir"
"$GO" build -o "$dir/tlsreport" ./cmd/tlsreport
"$GO" build -o "$dir/tlsserve" ./cmd/tlsserve
"$GO" build -o "$dir/tlsworker" ./cmd/tlsworker

echo "cluster-chaos: serial baseline"
"$dir/tlsreport" $report_args -jobs 1 >"$dir/serial.out" 2>"$dir/serial.err"

echo "cluster-chaos: starting chaos coordinator on $url (seed $seed)"
"$dir/tlsserve" -listen "127.0.0.1:$port" -cache "$dir/cache" \
	-journal "$dir/fleet.wal" $serve_args \
	-chaos-net hostile -chaos-seed "$seed" \
	>"$dir/serve.out" 2>"$dir/serve.err" &
serve_pid=$!
i=0
until grep -q "listening on" "$dir/serve.out" 2>/dev/null; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "cluster-chaos: coordinator never came up" >&2
		cat "$dir/serve.err" >&2
		exit 1
	fi
	sleep 0.1
done

echo "cluster-chaos: two hostile workers and one byzantine worker"
"$dir/tlsworker" -coordinator "$url" -name w1 -poll 100ms -observe \
	-chaos-net hostile -chaos-seed $((seed + 1)) \
	>"$dir/w1.out" 2>"$dir/w1.err" &
w1_pid=$!
"$dir/tlsworker" -coordinator "$url" -name w2 -poll 100ms \
	-chaos-net hostile -chaos-seed $((seed + 2)) \
	>"$dir/w2.out" 2>"$dir/w2.err" &
w2_pid=$!
# -jobs 3 keeps the byzantine lease pull's max field multi-valued; a corrupted
# "max":1 would read back as 0 and the worker would never lease anything.
"$dir/tlsworker" -coordinator "$url" -name byz -poll 100ms -jobs 3 \
	-chaos-net byzantine -chaos-seed $((seed + 3)) \
	>"$dir/byz.out" 2>"$dir/byz.err" &
byz_pid=$!

"$dir/tlsreport" $report_args -coordinator "$url" \
	>"$dir/fleet.out" 2>"$dir/fleet.err" &
client_pid=$!

sleep 1.5
echo "cluster-chaos: SIGKILL worker w2"
kill -9 "$w2_pid" 2>/dev/null ||
	echo "cluster-chaos: w2 already gone; campaign may have outrun the drill"
wait "$w2_pid" 2>/dev/null || true

# Bounded wait: a wedged fleet fails the drill instead of hanging CI.
i=0
while kill -0 "$client_pid" 2>/dev/null; do
	i=$((i + 1))
	if [ "$i" -gt 1800 ]; then
		echo "cluster-chaos: fleet campaign did not finish within 180s" >&2
		kill -9 "$client_pid" "$w1_pid" "$byz_pid" "$serve_pid" 2>/dev/null || true
		exit 1
	fi
	sleep 0.1
done
status=0
wait "$client_pid" || status=$?
if [ "$status" -ne 0 ]; then
	echo "cluster-chaos: fleet client exited $status" >&2
	cat "$dir/fleet.err" >&2
	kill "$w1_pid" "$byz_pid" "$serve_pid" 2>/dev/null || true
	exit 1
fi

# Drain the survivors and stop the coordinator.
kill -TERM "$w1_pid" "$byz_pid" 2>/dev/null || true
wait "$w1_pid" 2>/dev/null || true
wait "$byz_pid" 2>/dev/null || true
kill -TERM "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true

# Record the armed fault plans (seed -> schedule) for the CI artifact: the
# same seeds re-arm the identical schedules on a replay.
{
	echo "chaos-seed: $seed"
	grep -h "chaos-net armed" "$dir/serve.err" "$dir/w1.err" "$dir/w2.err" "$dir/byz.err" 2>/dev/null || true
} >"$dir/chaos.plan"

if ! grep -q "quarantined by coordinator" "$dir/byz.err"; then
	echo "cluster-chaos: byzantine worker was never circuit-broken" >&2
	cat "$dir/byz.err" >&2
	exit 1
fi

if ! diff "$dir/fleet.out" "$dir/serial.out"; then
	echo "cluster-chaos: fleet report differs from the serial run" >&2
	exit 1
fi
echo "cluster-chaos: fleet report byte-identical to serial run through network chaos, a byzantine worker, and a worker kill"
