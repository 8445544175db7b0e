// Package trace is the fleet's wall-clock observability layer: a span model
// with campaign/job/attempt correlation IDs that follows one job from
// coordinator submit through lease, worker attempt (watchdog, retry,
// quarantine) and result delivery, and a Tracer that doubles as
// an always-on bounded flight recorder.
//
// The package mirrors the two load-bearing properties of internal/obs:
//
//   - Disabled tracing is free. Every Tracer method is defined on a nil
//     receiver as a no-op after a single nil check, so code paths thread a
//     *Tracer unconditionally and pay nothing when tracing is off.
//   - The hot path does not allocate. Spans are values; Emit copies one into
//     a preallocated ring slot. Only explicit retention mode (Retain, for
//     shipping spans to a coordinator or exporting a trace file) appends to
//     a growable buffer.
//
// Spans live in the wall-clock domain of the orchestration layer — the
// coordinator's queue, the worker's attempts — never in the simulator's
// cycle domain, so tracing cannot perturb simulation results: the
// observer-effect regression tests run with tracing on and demand
// reflect.DeepEqual against untraced runs.
package trace

import (
	"fmt"
	"hash/fnv"
	"os"
	"sync"
	"time"
)

// Span kinds emitted by the fabric. Kind is an open set — these constants
// just keep the emitters and the exporter agreeing on lane assignment.
const (
	KindQueue      = "queue"      // coordinator: submit -> first lease grant
	KindLease      = "lease"      // coordinator: lease grant -> settle
	KindSteal      = "steal"      // coordinator: work-steal grant decision
	KindComplete   = "complete"   // coordinator: outcome ingested
	KindAttempt    = "attempt"    // runner: one execution attempt
	KindQuarantine = "quarantine" // runner: post-mortem of a permanent failure
	KindCacheHit   = "cache-hit"  // coordinator: job answered from the result cache
)

// Span is one timed (or instantaneous, Dur == 0) operation in the
// orchestration layer. The correlation fields tie the fleet's records
// together: Campaign is minted once per campaign (cluster.Coordinator.Submit
// or the CLI), Key is the job's content hash, Attempt the runner's attempt
// ordinal, and Flow an opaque cross-process correlation tag (the lease ID)
// that the Perfetto exporter renders as lease→attempt→complete flow arrows.
type Span struct {
	// ID is process-unique (see Tracer): the high bits derive from the
	// process lane name, the low bits count up, so spans merged from many
	// fleet processes never collide.
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`

	Name string `json:"name"`
	Kind string `json:"kind,omitempty"`

	Campaign string `json:"campaign,omitempty"`
	Key      string `json:"key,omitempty"`
	Attempt  int    `json:"attempt,omitempty"`
	Flow     uint64 `json:"flow,omitempty"`

	// Proc is the process lane ("coordinator", a worker name); the exporter
	// maps each distinct Proc to its own Perfetto pid.
	Proc string `json:"proc,omitempty"`

	// Start is µs since the Unix epoch; Dur the span length in µs (0 for an
	// instant event).
	Start int64 `json:"start_us"`
	Dur   int64 `json:"dur_us,omitempty"`

	Err  string `json:"err,omitempty"`
	Note string `json:"note,omitempty"`
}

// End returns the span's end time in µs since the epoch.
func (s Span) End() int64 { return s.Start + s.Dur }

// DefaultRingSize is the flight-recorder depth: enough spans to explain the
// last few jobs' worth of orchestration when a dump lands in a quarantine
// manifest or a stuck post-mortem.
const DefaultRingSize = 64

// retainCap bounds the retention buffer so a retaining tracer on a very long
// campaign cannot grow without bound between drains; spans past the cap are
// dropped and counted.
const retainCap = 1 << 16

// Tracer mints span IDs and records finished spans. It is safe for
// concurrent use (fleet workers emit from several lease executors at once).
// A nil *Tracer is the disabled layer: every method no-ops.
//
// The ring buffer is the always-on flight recorder: the last DefaultRingSize
// spans, overwritten in place with no allocation. Retain() additionally
// keeps every span in a growable buffer for Drain — the export and
// span-shipping mode.
type Tracer struct {
	mu     sync.Mutex
	proc   string
	idBase uint64 // process-unique high bits of every minted ID
	nextID uint64

	ring     []Span // flight recorder: fixed capacity, preallocated
	ringNext int    // next write slot
	ringSeen uint64 // total spans ever emitted

	retain  bool
	kept    []Span
	dropped uint64 // spans lost to the retention cap

	clock func() time.Time
}

// New returns a tracer for the named process lane with a DefaultRingSize
// flight recorder. Span IDs are unique across processes with distinct
// names: the name hashes into the IDs' high 32 bits.
func New(proc string) *Tracer {
	h := fnv.New32a()
	h.Write([]byte(proc))
	return &Tracer{
		proc:   proc,
		idBase: uint64(h.Sum32()) << 32,
		ring:   make([]Span, DefaultRingSize),
		clock:  time.Now,
	}
}

// Proc returns the tracer's process lane name ("" on nil).
func (t *Tracer) Proc() string {
	if t == nil {
		return ""
	}
	return t.proc
}

// Retain switches the tracer into retention mode: every emitted span is
// kept (up to an internal cap) until Drain collects it. No-op on nil.
func (t *Tracer) Retain() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.retain = true
	t.mu.Unlock()
}

// SetClock replaces the wall clock (deterministic tests). No-op on nil.
func (t *Tracer) SetClock(now func() time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clock = now
	t.mu.Unlock()
}

// Now returns the tracer's current wall-clock time (zero time on nil), the
// start stamp callers take before timing a section.
func (t *Tracer) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	t.mu.Lock()
	clock := t.clock
	t.mu.Unlock()
	return clock()
}

// UnixMicro converts a time taken from Now to span µs (0 for zero time).
func UnixMicro(at time.Time) int64 {
	if at.IsZero() {
		return 0
	}
	return at.UnixMicro()
}

// NextID mints a fresh process-unique span ID (0 on nil).
func (t *Tracer) NextID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := t.mintLocked()
	t.mu.Unlock()
	return id
}

func (t *Tracer) mintLocked() uint64 {
	t.nextID++
	return t.idBase | (t.nextID & 0xFFFFFFFF)
}

// Emit records one finished span, stamping Proc and (when sp.ID is zero) a
// fresh ID, and returns the span's ID. The span lands in the flight-recorder
// ring always, and in the retention buffer when Retain is on. Returns 0 on a
// nil tracer.
func (t *Tracer) Emit(sp Span) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	if sp.ID == 0 {
		sp.ID = t.mintLocked()
	}
	if sp.Proc == "" {
		sp.Proc = t.proc
	}
	t.ring[t.ringNext] = sp
	t.ringNext = (t.ringNext + 1) % len(t.ring)
	t.ringSeen++
	if t.retain {
		if len(t.kept) < retainCap {
			t.kept = append(t.kept, sp)
		} else {
			t.dropped++
		}
	}
	t.mu.Unlock()
	return sp.ID
}

// Instant emits a zero-duration span at the current clock and returns its
// ID. Convenience over Emit for decision points (retries, steals,
// quarantines).
func (t *Tracer) Instant(sp Span) uint64 {
	if t == nil {
		return 0
	}
	sp.Start = UnixMicro(t.Now())
	sp.Dur = 0
	return t.Emit(sp)
}

// Since emits sp with Start/Dur computed from start (taken from Now) to the
// current clock, returning the span's ID.
func (t *Tracer) Since(start time.Time, sp Span) uint64 {
	if t == nil {
		return 0
	}
	end := t.Now()
	sp.Start = UnixMicro(start)
	if d := end.Sub(start); d > 0 {
		sp.Dur = d.Microseconds()
	}
	return t.Emit(sp)
}

// Dump returns the flight recorder's contents, oldest first — the last
// DefaultRingSize spans emitted. Safe to call at any time; nil returns nil.
func (t *Tracer) Dump() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.ring)
	if t.ringSeen < uint64(n) {
		n = int(t.ringSeen)
	}
	out := make([]Span, 0, n)
	if t.ringSeen < uint64(len(t.ring)) {
		out = append(out, t.ring[:t.ringSeen]...)
		return out
	}
	out = append(out, t.ring[t.ringNext:]...)
	out = append(out, t.ring[:t.ringNext]...)
	return out
}

// Drain returns and clears the retention buffer (nil when empty, when
// retention is off, or on a nil tracer). The flight-recorder ring is
// untouched: a drain never erases the post-mortem view.
func (t *Tracer) Drain() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	kept := t.kept
	t.kept = nil
	t.mu.Unlock()
	if len(kept) == 0 {
		return nil
	}
	return kept
}

// Requeue puts drained spans back at the head of the retention buffer — the
// undo for a Drain whose shipment failed (a worker's heartbeat that never
// reached the coordinator must not lose its spans).
func (t *Tracer) Requeue(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	if t.retain {
		if room := retainCap - len(spans); room >= 0 {
			t.kept = append(spans, t.kept...)
			if len(t.kept) > retainCap {
				t.dropped += uint64(len(t.kept) - retainCap)
				t.kept = t.kept[:retainCap]
			}
		} else {
			t.dropped += uint64(len(spans))
		}
	}
	t.mu.Unlock()
}

// Dropped returns how many spans the retention cap discarded (0 on nil).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Emitted returns how many spans the tracer has ever recorded (0 on nil).
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ringSeen
}

// MintCampaign derives a campaign correlation ID from the campaign name, the
// host, the process and the given instant: short enough for log lines,
// unique enough that two campaigns' records never merge by accident.
func MintCampaign(name string, at time.Time) string {
	host, _ := os.Hostname()
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d", name, host, os.Getpid(), at.UnixNano())
	return fmt.Sprintf("%s-%08x", name, uint32(h.Sum64()^h.Sum64()>>32))
}
