GO ?= go

.PHONY: build test fmt vet race race-short chaos cluster cluster-chaos fsck-drill verify report bench trace fleet-trace

build:
	$(GO) build ./...

# test also runs the benchmark driver's own module (perfbench/, ~6 s).
test:
	$(GO) test ./...
	cd perfbench && $(GO) test ./...

# fmt fails when any file needs gofmt.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# vet also covers the benchmark driver's own module (perfbench/), which the
# root ./... skips because it is a nested module.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

# race exercises the packages that run jobs concurrently (the in-process
# coordinator, its worker and the runner), the sweeps built on them, the
# stream store its workers share, and the caches, directory and memory
# whose storage one simulation hands to the next.
race:
	$(GO) test -race ./internal/exp ./internal/cluster ./internal/report ./internal/sim ./internal/workload ./internal/memsys ./internal/coherence

# race-short runs the whole module under the race detector in short mode —
# the CI job that guards the parallel simulation core (prefetch workers and
# their recycled stream buffers) and the cluster sleep seams without
# full-grid runtimes.
race-short:
	$(GO) test -race -short ./...

# chaos is the bounded fault-injection campaign (~30s): recoverable faults
# must be absorbed with zero invariant violations, injected tag corruption
# must be detected by the checker, and an interrupted-then-resumed campaign
# must emit a report byte-identical to an uninterrupted run's.
chaos:
	$(GO) run ./cmd/tlschaos -seeds 40
	$(GO) run ./cmd/tlschaos -seeds 10 -faults flip-tag
	GO="$(GO)" sh ./scripts/chaos_drill.sh

# cluster is the distributed-campaign drill: a loopback fleet (tlsserve +
# two tlsworkers) runs a figure grid, loses one worker and the coordinator
# to SIGKILL mid-campaign, resumes from the WAL, and must render artifacts
# byte-identical to a serial tlsreport run.
cluster:
	GO="$(GO)" sh ./scripts/cluster_drill.sh

# cluster-chaos is the hostile-network drill: every fabric link injects
# seeded faults (drops, delays, duplicates, reordering, truncation,
# corruption, partition windows), one worker is fully byzantine and must be
# circuit-broken, one healthy worker dies to SIGKILL — and the fleet report
# must still be byte-identical to a serial run.
cluster-chaos:
	GO="$(GO)" sh ./scripts/cluster_chaos_drill.sh

# fsck-drill is the storage-fault drill: a journaled, cached sweep dies to a
# simulated power cut mid-campaign (-io-chaos), tlsfsck verifies and repairs
# the surviving state, and the resumed campaign's CSV must be byte-identical
# to a clean uninterrupted run's.
fsck-drill:
	GO="$(GO)" sh ./scripts/fsck_drill.sh

# verify is the CI gate: formatting, vet, build, full tests, race tests.
verify: fmt vet build test race

# report regenerates every table and figure through the orchestrator.
report:
	$(GO) run ./cmd/tlsreport -metrics

# trace emits a Perfetto trace of an observed run (exec/commit lanes,
# counter tracks, squash flow arrows) and validates it against the
# trace-event schema — the artifact CI uploads for ui.perfetto.dev.
trace:
	$(GO) run ./cmd/tlstrace -app Euler -machine cmp -perfetto trace.json
	$(GO) run ./cmd/tlstrace -validate trace.json

# fleet-trace is the fleet-observability drill: a loopback fleet (tlsserve
# -trace + two tlsworker -trace) runs a figure grid, the coordinator writes
# one merged Perfetto trace (pid per process, lease->attempt->complete
# flow arrows) that tlstrace -validate must accept, /metrics must expose
# the phase-latency histograms, and a panic-injection step must leave a
# flight-recorder dump in the quarantine manifest.
fleet-trace:
	GO="$(GO)" sh ./scripts/fleet_trace_drill.sh

# bench runs the simulator's hot-path benchmarks with allocation counts
# and copies the log to bench-report.txt, an informational ns/op record.
# Allocations are gated by the TestAllocBudgets test beside each package's
# benchmarks, which `make test` runs.
bench:
	@$(GO) test -run '^$$' -bench . -benchmem ./internal/event ./internal/coherence \
		./internal/memsys ./internal/workload ./internal/sim > bench-report.txt 2>&1; \
	st=$$?; cat bench-report.txt; exit $$st
