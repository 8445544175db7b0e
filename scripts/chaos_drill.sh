#!/bin/sh
# Interrupt-resume drill for `make chaos`: SIGINT a journaled tlschaos
# campaign at a random point, resume it from the journal, and require that
# the resume re-runs no completed case and that its report is byte-identical
# to an uninterrupted run's. Artifacts (journal, post-mortems, reports) land
# in $CHAOS_DRILL_DIR for CI upload on failure.
set -eu

GO="${GO:-go}"
dir="${CHAOS_DRILL_DIR:-chaos-drill}"
args="-seeds 30 -jobs 2"

rm -rf "$dir"
mkdir -p "$dir"
"$GO" build -o "$dir/tlschaos" ./cmd/tlschaos

echo "chaos-drill: campaign with journal, interrupting at a random point"
"$dir/tlschaos" $args -journal "$dir/journal.jsonl" -record "$dir/failures.json" \
	>"$dir/interrupted.out" 2>"$dir/interrupted.err" &
pid=$!
delay=$(awk 'BEGIN{srand(); printf "%.1f", 0.5 + rand() * 2.5}')
sleep "$delay"
if kill -INT "$pid" 2>/dev/null; then
	status=0
	wait "$pid" || status=$?
	if [ "$status" -eq 0 ]; then
		echo "chaos-drill: campaign finished before the interrupt (delay ${delay}s); drill degenerates to a rerun diff"
	elif [ "$status" -ne 130 ]; then
		echo "chaos-drill: interrupted campaign exited $status, want 130" >&2
		cat "$dir/interrupted.err" >&2
		exit 1
	else
		echo "chaos-drill: interrupted after ${delay}s (exit 130), resuming"
	fi
else
	# The campaign finished before the signal fired.
	wait "$pid" || { cat "$dir/interrupted.err" >&2; exit 1; }
	echo "chaos-drill: campaign finished before the interrupt (delay ${delay}s); drill degenerates to a rerun diff"
fi

# Completed cases must never re-run: remember which keys the interrupted run
# journaled as job-done, then require the resume to start none of them (a
# silent re-run would still pass the byte-identical diff). An execution
# starts with a lease record (the in-process coordinator) or, in journals of
# older local runners, a job-start record; both count.
cp "$dir/journal.jsonl" "$dir/interrupted.jsonl"
sed -n 's/^{"t":"job-done".*"key":"\([0-9a-f]*\)".*/\1/p' "$dir/interrupted.jsonl" | sort -u >"$dir/done.keys"

"$dir/tlschaos" $args -resume "$dir/journal.jsonl" -record "$dir/failures.json" \
	>"$dir/resumed.out" 2>"$dir/resumed.err"

tail -n +"$(($(wc -l <"$dir/interrupted.jsonl") + 1))" "$dir/journal.jsonl" |
	sed -n -e 's/^{"t":"job-start".*"key":"\([0-9a-f]*\)".*/\1/p' \
		-e 's/^{"t":"lease".*"key":"\([0-9a-f]*\)".*/\1/p' | sort -u >"$dir/restarted.keys"
rerun=$(comm -12 "$dir/done.keys" "$dir/restarted.keys")
if [ -n "$rerun" ]; then
	echo "chaos-drill: resume re-ran cases the interrupted run had completed:" >&2
	echo "$rerun" >&2
	exit 1
fi
echo "chaos-drill: resume re-ran none of the $(wc -l <"$dir/done.keys") completed cases"

"$dir/tlschaos" $args -record "$dir/failures.json" \
	>"$dir/clean.out" 2>"$dir/clean.err"

if ! diff "$dir/resumed.out" "$dir/clean.out"; then
	echo "chaos-drill: resumed report differs from uninterrupted run" >&2
	exit 1
fi
echo "chaos-drill: resumed report byte-identical to uninterrupted run"
