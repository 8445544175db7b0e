package cluster

import (
	"encoding/json"
	"fmt"
	"hash/crc32"

	"repro/internal/exp"
	"repro/internal/obs/trace"
	"repro/internal/sim"
)

// The fabric's HTTP API is five JSON POST endpoints plus the dashboard:
//
//	/v1/submit    client -> coordinator: register jobs (idempotent by Key)
//	/v1/lease     worker -> coordinator: pull a batch of leased jobs
//	/v1/heartbeat worker -> coordinator: extend leases, ship trace spans
//	/v1/complete  worker -> coordinator: deliver one job's sealed outcome
//	/v1/release   worker -> coordinator: return leases without an outcome
//	/v1/results   client -> coordinator: poll sealed outcomes by key
//
// Results cross the wire inside a CRC-sealed envelope (the same Castagnoli
// polynomial the result cache uses) so a truncated or bit-rotted body is
// rejected at ingest instead of poisoning the campaign.

// Envelope is a CRC-checked JSON payload.
type Envelope struct {
	Check   uint32          `json:"check"`
	Payload json.RawMessage `json:"payload"`
}

var wireCRC = crc32.MakeTable(crc32.Castagnoli)

// Seal wraps v in a checksummed envelope.
func Seal(v any) (Envelope, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return Envelope{}, err
	}
	return Envelope{Check: crc32.Checksum(payload, wireCRC), Payload: payload}, nil
}

// Open verifies the envelope's checksum and unmarshals the payload into v.
func (e Envelope) Open(v any) error {
	if e.Payload == nil {
		return fmt.Errorf("cluster: empty envelope")
	}
	if got := crc32.Checksum(e.Payload, wireCRC); got != e.Check {
		return fmt.Errorf("cluster: envelope checksum %08x, want %08x", got, e.Check)
	}
	return json.Unmarshal(e.Payload, v)
}

// Outcome is one job's sealed result as it crosses the wire and as the
// coordinator persists it (journal Data for chaotic jobs).
type Outcome struct {
	Key    string            `json:"key"`
	Result sim.Result        `json:"result"`
	Chaos  *exp.ChaosVerdict `json:"chaos,omitempty"`
	// Err is the permanent failure text ("" on success); TimedOut marks a
	// watchdog kill, which the coordinator treats as deterministic (a hung
	// simulation hangs everywhere) and never re-issues.
	Err      string `json:"err,omitempty"`
	TimedOut bool   `json:"timed_out,omitempty"`
	// Cached marks an outcome the coordinator served from its result cache
	// or its resumed journal without leasing the job to anyone.
	Cached bool `json:"cached,omitempty"`
	// Attempts is how many executions the coordinator issued for the key;
	// WallMS is the settling execution's wall time, Worker who ran it.
	Attempts int    `json:"attempts,omitempty"`
	WallMS   int64  `json:"wall_ms,omitempty"`
	Worker   string `json:"worker,omitempty"`
	// Counters are the observed run's obs counters (a worker with Observe
	// on, or a caller-attached registry). The coordinator merges them into
	// its tls_run_* series only when this outcome settles the job, so a
	// duplicate or rejected execution never counts twice.
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// SubmitRequest registers jobs with the coordinator. Submission is
// idempotent: a key the coordinator already tracks is joined, not
// duplicated, which is what lets a crashed client (or a resumed campaign)
// simply submit again.
type SubmitRequest struct {
	Jobs []JobSpec `json:"jobs"`
}

// SubmitResponse reports how many of the submitted jobs were new and how
// many are already complete (cache hits and previously finished work).
type SubmitResponse struct {
	Accepted int `json:"accepted"`
	Done     int `json:"done"`
	// Rejected lists keys whose specs did not re-hash to their own key —
	// version skew between client and coordinator, or a corrupted submit
	// body. They are not registered; a clean resubmission heals transport
	// corruption, and a client that keeps seeing its keys here gives up.
	Rejected []string `json:"rejected,omitempty"`
}

// LeaseRequest pulls up to Max leased jobs for a named worker. An idle
// worker with nothing pending may be handed a speculative duplicate of
// another worker's long-running lease (work stealing).
type LeaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max"`
}

// Lease is one granted job: run Spec, heartbeat before TTL expires, then
// Complete or Release.
type Lease struct {
	ID   uint64  `json:"id"`
	Spec JobSpec `json:"spec"`
	// TTLMS is how long the coordinator holds the lease without a heartbeat.
	TTLMS int64 `json:"ttl_ms"`
	// Attempt is the job's 1-based execution number (spans, post-mortems).
	Attempt int `json:"attempt,omitempty"`
	// Speculative marks the one duplicate of a job another worker already
	// holds, stolen by an idle worker; first valid result wins.
	Speculative bool `json:"speculative,omitempty"`
}

// LeaseResponse carries the granted leases (possibly none). RetryAfterMS,
// when set, tells the worker its lease request was refused by the circuit
// breaker and how long to back off before asking again.
type LeaseResponse struct {
	Leases       []Lease `json:"leases"`
	RetryAfterMS int64   `json:"retry_after_ms,omitempty"`
}

// HeartbeatRequest extends the named leases and ships trace spans.
type HeartbeatRequest struct {
	Worker string   `json:"worker"`
	Leases []uint64 `json:"leases"`
	// Spans ships the worker's retained trace spans since the last
	// successful heartbeat; the coordinator folds them into the merged fleet
	// trace. A failed heartbeat requeues them locally, so spans are
	// delivered at-least-zero, at-most-once — tracing is diagnostic cargo,
	// never load-bearing state.
	Spans []trace.Span `json:"spans,omitempty"`
}

// HeartbeatResponse lists leases the worker should abandon: their jobs were
// completed elsewhere (a speculative duplicate won the race).
type HeartbeatResponse struct {
	Cancel []uint64 `json:"cancel,omitempty"`
}

// CompleteRequest delivers one lease's sealed Outcome.
type CompleteRequest struct {
	Worker string   `json:"worker"`
	Lease  uint64   `json:"lease"`
	Key    string   `json:"key"`
	Env    Envelope `json:"env"`
	// FinishedUS is when (µs since epoch, worker clock) the attempt
	// finished; the coordinator derives result-delivery latency from it.
	FinishedUS int64 `json:"finished_us,omitempty"`
	// Spans ships the attempt's trace spans alongside the result.
	Spans []trace.Span `json:"spans,omitempty"`
}

// CompleteResponse acknowledges an outcome. Duplicate marks a result for a
// job some other issue already completed (counted, then discarded); Failed
// marks a failed execution that failed the job permanently, so the worker
// writes its post-mortem.
type CompleteResponse struct {
	Accepted  bool `json:"accepted"`
	Duplicate bool `json:"duplicate,omitempty"`
	Failed    bool `json:"failed,omitempty"`
}

// ReleaseRequest returns leases without outcomes (worker drain, or a cancel
// acknowledged); the jobs go back to the pending queue unless already done.
type ReleaseRequest struct {
	Worker string   `json:"worker"`
	Leases []uint64 `json:"leases"`
}

// ResultsRequest polls outcomes for the given keys.
type ResultsRequest struct {
	Keys []string `json:"keys"`
}

// ResultsResponse maps each finished key to its sealed Outcome; Pending is
// how many requested keys are not finished yet. Unknown lists requested keys
// the coordinator does not track at all — a client that sees its keys here
// (a coordinator restarted without its journal) re-submits them.
type ResultsResponse struct {
	Results map[string]Envelope `json:"results"`
	Pending int                 `json:"pending"`
	Unknown []string            `json:"unknown,omitempty"`
}
