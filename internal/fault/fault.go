// Package fault builds seeded, deterministic fault plans for stress-testing
// the speculative buffering protocols. A Plan decides, at named hook points
// inside the simulator (spurious squash triggers in the coherence layer,
// delayed remote transfers, forced speculative-buffer overflows in the
// cache, stalled commits, and bit-flipped version tags), whether to inject
// a fault, drawing every decision from a private deterministic stream.
//
// Two properties make the plans usable for campaigns:
//
//   - Determinism: a Plan is a pure function of its Config. Because the
//     simulator itself is deterministic, replaying a (machine, scheme,
//     profile, seed, fault config) tuple reproduces the identical run —
//     including the identical injected faults and the identical invariant
//     report — which is what `tlschaos -replay` relies on.
//   - Boundedness: every plan carries a MaxFaults budget; once spent, all
//     hooks answer "no fault", so an injection storm cannot livelock a run
//     (the head task always eventually commits).
//
// The recoverable kinds (SpuriousSquash, DelayMessage, ForceOverflow,
// StallCommit) only exercise paths the protocol must survive: a correct
// protocol completes the section with zero invariant violations and a
// sequential-equivalent memory image. FlipTag is different — it corrupts a
// version tag, which a correct protocol can NOT survive; it exists to
// prove the runtime invariant checker detects corruption.
package fault

import (
	"fmt"
	"strings"

	"repro/internal/event"
	"repro/internal/rng"
)

// Kind names one fault class.
type Kind uint8

const (
	// SpuriousSquash delivers a violation message for a task that did not
	// actually violate, squashing it and its successors.
	SpuriousSquash Kind = iota
	// DelayMessage adds latency to a remote version transfer or memory
	// round trip (a slow or retried coherence message).
	DelayMessage
	// ForceOverflow steals cache capacity: an insert victimizes a resident
	// line even though a free way exists, forcing speculative versions out
	// to the overflow area (AMM) or to memory (FMM).
	ForceOverflow
	// StallCommit holds the commit token extra cycles (a slow merge or an
	// arbitration stall at the commit point).
	StallCommit
	// FlipTag corrupts the producer task-ID tag of a cached dirty version —
	// deliberate state corruption used to validate the invariant checker.
	FlipTag

	numKinds
)

func (k Kind) String() string {
	switch k {
	case SpuriousSquash:
		return "spurious-squash"
	case DelayMessage:
		return "delay-message"
	case ForceOverflow:
		return "force-overflow"
	case StallCommit:
		return "stall-commit"
	case FlipTag:
		return "flip-tag"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Kinds lists every fault class.
func Kinds() []Kind {
	return []Kind{SpuriousSquash, DelayMessage, ForceOverflow, StallCommit, FlipTag}
}

// KindFromString parses a Kind by its String() name.
func KindFromString(name string) (Kind, bool) {
	for _, k := range Kinds() {
		if strings.EqualFold(k.String(), name) {
			return k, true
		}
	}
	return 0, false
}

// Config parameterizes one run's fault plan. The zero value injects
// nothing; probabilities are per hook invocation.
type Config struct {
	// Seed drives the plan's private decision stream.
	Seed uint64
	// SquashProb is the chance, per conflict-free write to a word with
	// speculative readers, of delivering a spurious violation.
	SquashProb float64
	// DelayProb is the chance, per remote transfer, of extra latency; a
	// delayed message is late by 1..DelayCycles cycles.
	DelayProb   float64
	DelayCycles uint64
	// OverflowProb is the chance, per cache insert that found a free way,
	// of victimizing a resident line anyway (capacity theft).
	OverflowProb float64
	// StallProb is the chance, per commit, of holding the token an extra
	// 1..StallCycles cycles.
	StallProb   float64
	StallCycles uint64
	// FlipProb is the chance, per completed store, of corrupting the
	// producer tag of one locally cached dirty version.
	FlipProb float64
	// MaxFaults bounds the total injections of the plan (0 = DefaultBudget).
	MaxFaults int
}

// DefaultBudget is the injection budget used when MaxFaults is 0.
const DefaultBudget = 256

// Enabled reports whether the config can inject anything at all.
func (c Config) Enabled() bool {
	return c.SquashProb > 0 || c.DelayProb > 0 || c.OverflowProb > 0 ||
		c.StallProb > 0 || c.FlipProb > 0
}

func (c Config) String() string {
	return fmt.Sprintf("seed=%d squash=%.3f delay=%.3f/%d overflow=%.3f stall=%.3f/%d flip=%.3f budget=%d",
		c.Seed, c.SquashProb, c.DelayProb, c.DelayCycles, c.OverflowProb,
		c.StallProb, c.StallCycles, c.FlipProb, c.max())
}

func (c Config) max() int {
	if c.MaxFaults <= 0 {
		return DefaultBudget
	}
	return c.MaxFaults
}

// CampaignConfig derives a randomized recoverable-fault Config from a
// campaign seed: each seed turns a different mix of fault classes on at
// different rates and magnitudes, so a sweep of seeds covers quiet runs,
// single-fault stress, and combined storms. FlipTag stays off — it injects
// detectable corruption, not survivable stress — and is selected explicitly
// (tlschaos -faults flip-tag).
func CampaignConfig(seed uint64) Config {
	r := rng.New(seed ^ 0xfa017fa017)
	c := Config{Seed: seed}
	if r.Bool(0.7) {
		c.SquashProb = 0.002 + 0.03*r.Float64()
	}
	if r.Bool(0.7) {
		c.DelayProb = 0.05 + 0.3*r.Float64()
		c.DelayCycles = 20 + uint64(r.Intn(500))
	}
	if r.Bool(0.7) {
		c.OverflowProb = 0.02 + 0.2*r.Float64()
	}
	if r.Bool(0.7) {
		c.StallProb = 0.1 + 0.5*r.Float64()
		c.StallCycles = 50 + uint64(r.Intn(2000))
	}
	c.MaxFaults = 64 + r.Intn(512)
	return c
}

// Plan is one run's injector. It is not safe for concurrent use: a plan
// belongs to exactly one (single-threaded) simulation.
type Plan struct {
	cfg    Config
	r      *rng.Source
	counts [numKinds]int
	total  int
}

// NewPlan builds the injector for cfg.
func NewPlan(cfg Config) *Plan {
	return &Plan{cfg: cfg, r: rng.New(cfg.Seed ^ 0x9d8f0c3b55aa1234)}
}

// Config returns the plan's configuration.
func (p *Plan) Config() Config { return p.cfg }

// note records an injection and reports whether the budget allowed it.
func (p *Plan) note(k Kind) bool {
	if p.total >= p.cfg.max() {
		return false
	}
	p.total++
	p.counts[k]++
	return true
}

// exhausted reports whether the injection budget is spent. Hooks still
// consume one decision draw before checking, so the stream stays aligned
// between runs that differ only in budget.
func (p *Plan) exhausted() bool { return p.total >= p.cfg.max() }

// SpuriousSquash decides whether the current conflict-free write should
// deliver a spurious violation.
func (p *Plan) SpuriousSquash() bool {
	return p.r.Bool(p.cfg.SquashProb) && p.note(SpuriousSquash)
}

// MessageDelay returns extra latency for the current remote transfer
// (0 = on time).
func (p *Plan) MessageDelay() event.Time {
	if !p.r.Bool(p.cfg.DelayProb) || p.exhausted() {
		return 0
	}
	d := event.Time(1 + uint64(p.r.Intn(int(p.cfg.DelayCycles)+1)))
	p.note(DelayMessage)
	return d
}

// ForceOverflow decides whether the current cache insert must evict a
// resident line despite a free way.
func (p *Plan) ForceOverflow() bool {
	return p.r.Bool(p.cfg.OverflowProb) && p.note(ForceOverflow)
}

// CommitStall returns extra cycles the current commit holds the token
// (0 = none).
func (p *Plan) CommitStall() event.Time {
	if !p.r.Bool(p.cfg.StallProb) || p.exhausted() {
		return 0
	}
	d := event.Time(1 + uint64(p.r.Intn(int(p.cfg.StallCycles)+1)))
	p.note(StallCommit)
	return d
}

// FlipTag decides whether to corrupt a cached version tag after the
// current store.
func (p *Plan) FlipTag() bool {
	return p.r.Bool(p.cfg.FlipProb) && p.note(FlipTag)
}

// Pick returns a deterministic index in [0, n) for choosing a fault target
// (e.g. which cached line to corrupt). It panics if n <= 0.
func (p *Plan) Pick(n int) int { return p.r.Intn(n) }

// Total returns how many faults have been injected.
func (p *Plan) Total() int { return p.total }

// Count returns how many faults of kind k have been injected.
func (p *Plan) Count(k Kind) int { return p.counts[k] }

// Summary renders the per-kind injection counts ("none" when quiet).
func (p *Plan) Summary() string {
	if p.total == 0 {
		return "none"
	}
	var parts []string
	for _, k := range Kinds() {
		if n := p.counts[k]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, n))
		}
	}
	return strings.Join(parts, " ")
}
