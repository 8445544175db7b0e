#!/bin/sh
# Storage-fault drill for `make fsck-drill`: run a journaled, cached tlssweep
# campaign under an injected fault plan whose power cut kills the process
# mid-campaign, verify and repair the surviving state with tlsfsck, resume
# the campaign, and require the resumed CSV to be byte-identical to a clean
# uninterrupted run's. Artifacts (fault plan, fsck reports, journals, CSVs)
# land in $FSCK_DRILL_DIR for CI upload.
set -eu

GO="${GO:-go}"
dir="${FSCK_DRILL_DIR:-fsck-drill}"
# Zero fault probabilities before the cut: the campaign runs exactly like a
# clean one until the power dies, so resume-vs-clean must match bytewise.
plan="${FSCK_DRILL_PLAN:-seed=7,cut=25,cutmode=torn}"
args='-app Euler -param depprob -values 0,0.1 -tasks 0.1 -instr 0.05 -jobs 2'

rm -rf "$dir"
mkdir -p "$dir/state"
"$GO" build -o "$dir/tlssweep" ./cmd/tlssweep
"$GO" build -o "$dir/tlsfsck" ./cmd/tlsfsck

echo "fsck-drill: clean uninterrupted run (golden)"
"$dir/tlssweep" $args >"$dir/clean.csv" 2>"$dir/clean.err"

echo "fsck-drill: campaign under fault plan '$plan'"
echo "$plan" >"$dir/fault-plan.txt"
status=0
"$dir/tlssweep" $args \
	-io-chaos "$plan" \
	-journal "$dir/state/journal.jsonl" \
	-cache "$dir/state/cache" \
	>"$dir/faulted.csv" 2>"$dir/faulted.err" || status=$?
if [ "$status" -eq 0 ]; then
	echo "fsck-drill: campaign outran the power cut; drill degenerates to a verify + rerun diff"
elif [ "$status" -ne 3 ]; then
	echo "fsck-drill: faulted campaign exited $status, want 3 (power cut)" >&2
	cat "$dir/faulted.err" >&2
	exit 1
else
	echo "fsck-drill: power cut fired (exit 3); state left as the cut left it"
fi

echo "fsck-drill: verifying crashed state"
fsck_status=0
"$dir/tlsfsck" -state "$dir/state" -json >"$dir/fsck-verify.json" || fsck_status=$?
if [ "$fsck_status" -gt 1 ]; then
	echo "fsck-drill: tlsfsck verify failed (exit $fsck_status)" >&2
	exit 1
fi
echo "fsck-drill: verify exit $fsck_status; repairing"
repair_status=0
"$dir/tlsfsck" -state "$dir/state" -repair -json >"$dir/fsck-repair.json" || repair_status=$?
if [ "$repair_status" -gt 1 ]; then
	echo "fsck-drill: tlsfsck repair failed (exit $repair_status)" >&2
	exit 1
fi

echo "fsck-drill: state must verify clean after repair"
if ! "$dir/tlsfsck" -state "$dir/state" -json >"$dir/fsck-clean.json"; then
	echo "fsck-drill: state still dirty after repair" >&2
	cat "$dir/fsck-clean.json" >&2
	exit 1
fi

echo "fsck-drill: resuming the campaign from the repaired state"
"$dir/tlssweep" $args \
	-resume "$dir/state/journal.jsonl" \
	-cache "$dir/state/cache" \
	>"$dir/resumed.csv" 2>"$dir/resumed.err"

if ! diff "$dir/resumed.csv" "$dir/clean.csv"; then
	echo "fsck-drill: resumed CSV differs from clean run" >&2
	exit 1
fi
echo "fsck-drill: resumed CSV byte-identical to clean run"
