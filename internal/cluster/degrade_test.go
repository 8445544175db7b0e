package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
)

// degradeCoordinator builds an injected-clock coordinator for breaker and
// overload tests (no stealing, so lease accounting stays exact).
func degradeCoordinator(t *testing.T, cfg Config) (*Coordinator, *fixedClock) {
	t.Helper()
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = time.Minute
	}
	cfg.StealAfter = -1
	co := NewCoordinator(cfg)
	clk := &fixedClock{t: time.Unix(1000, 0)}
	co.now = clk.now
	return co, clk
}

// corruptComplete delivers one CRC-invalid outcome for the given lease.
func corruptComplete(t *testing.T, co *Coordinator, worker string, l Lease) {
	t.Helper()
	env := sealOutcome(t, Outcome{Key: l.Spec.Key, Worker: worker})
	env.Payload[2] ^= 0x40
	if resp := co.Complete(CompleteRequest{Worker: worker, Lease: l.ID, Key: l.Spec.Key, Env: env}); resp.Accepted {
		t.Fatal("corrupt envelope accepted")
	}
}

// TestBreakerQuarantineAndProbation walks the breaker state machine with an
// injected clock: three consecutive CRC-invalid results quarantine the
// worker (empty leases + Retry-After), the lapsed quarantine re-admits it on
// probation with exactly one probe lease, and a valid delivery closes it.
func TestBreakerQuarantineAndProbation(t *testing.T) {
	co, clk := degradeCoordinator(t, Config{QuarantineFor: 10 * time.Second})
	for seed := uint64(1); seed <= 5; seed++ {
		submitOne(t, co, seed)
	}

	for i := 0; i < 3; i++ {
		lr := co.LeaseJobs(LeaseRequest{Worker: "byz", Max: 1})
		if len(lr.Leases) != 1 {
			t.Fatalf("round %d: lease refused before trip: %+v", i, lr)
		}
		corruptComplete(t, co, "byz", lr.Leases[0])
	}
	if co.ctr.crcRejected != 3 || co.ctr.breakerOpens != 1 {
		t.Fatalf("after 3 bad results: %+v", co.ctr)
	}
	if n := co.Counts(); n.Quarantined != 1 {
		t.Fatalf("quarantined census: %+v", n)
	}

	// Quarantined: no leases, only a Retry-After hint.
	lr := co.LeaseJobs(LeaseRequest{Worker: "byz", Max: 5})
	if len(lr.Leases) != 0 || lr.RetryAfterMS <= 0 {
		t.Fatalf("quarantine not enforced: %+v", lr)
	}
	// A healthy worker is unaffected.
	if lr := co.LeaseJobs(LeaseRequest{Worker: "good", Max: 1}); len(lr.Leases) != 1 {
		t.Fatalf("healthy worker starved: %+v", lr)
	}

	// Quarantine lapses: probation grants exactly one probe, even for Max 5,
	// and nothing more while the probe is outstanding.
	clk.advance(11 * time.Second)
	probe := co.LeaseJobs(LeaseRequest{Worker: "byz", Max: 5})
	if len(probe.Leases) != 1 {
		t.Fatalf("probation probe: %+v", probe)
	}
	if co.ctr.breakerProbations != 1 {
		t.Fatalf("probation not counted: %+v", co.ctr)
	}
	if again := co.LeaseJobs(LeaseRequest{Worker: "byz", Max: 5}); len(again.Leases) != 0 || again.RetryAfterMS <= 0 {
		t.Fatalf("second probe granted during probation: %+v", again)
	}

	// A CRC-valid delivery graduates the probation; full service resumes.
	l := probe.Leases[0]
	resp := co.Complete(CompleteRequest{
		Worker: "byz", Lease: l.ID, Key: l.Spec.Key,
		Env: sealOutcome(t, Outcome{Key: l.Spec.Key, Worker: "byz"}),
	})
	if !resp.Accepted {
		t.Fatalf("probe completion: %+v", resp)
	}
	if co.ctr.breakerCloses != 1 {
		t.Fatalf("breaker did not close: %+v", co.ctr)
	}
	if lr := co.LeaseJobs(LeaseRequest{Worker: "byz", Max: 5}); len(lr.Leases) < 2 {
		t.Fatalf("full service not restored: %+v", lr)
	}
	if n := co.Counts(); n.Quarantined != 0 {
		t.Fatalf("census after close: %+v", n)
	}
}

// TestBreakerReopensWithDoubledQuarantine fails the probation probe and
// requires the second quarantine to last twice the base span.
func TestBreakerReopensWithDoubledQuarantine(t *testing.T) {
	co, clk := degradeCoordinator(t, Config{QuarantineFor: 10 * time.Second})
	for seed := uint64(1); seed <= 3; seed++ {
		submitOne(t, co, seed)
	}
	for i := 0; i < 3; i++ {
		lr := co.LeaseJobs(LeaseRequest{Worker: "byz", Max: 1})
		corruptComplete(t, co, "byz", lr.Leases[0])
	}
	clk.advance(11 * time.Second)
	probe := co.LeaseJobs(LeaseRequest{Worker: "byz", Max: 1})
	if len(probe.Leases) != 1 {
		t.Fatalf("probe: %+v", probe)
	}
	// The probe itself is corrupt: reopen immediately, quarantine doubled.
	corruptComplete(t, co, "byz", probe.Leases[0])
	if co.ctr.breakerOpens != 2 {
		t.Fatalf("failed probe did not reopen: %+v", co.ctr)
	}
	clk.advance(11 * time.Second) // past base, inside doubled span
	if lr := co.LeaseJobs(LeaseRequest{Worker: "byz", Max: 1}); len(lr.Leases) != 0 {
		t.Fatalf("doubled quarantine not honored: %+v", lr)
	}
	clk.advance(10 * time.Second) // past 20s total
	if lr := co.LeaseJobs(LeaseRequest{Worker: "byz", Max: 1}); len(lr.Leases) != 1 {
		t.Fatalf("second probation refused: %+v", lr)
	}
}

// TestBreakerTripsOnExpiryChurn quarantines a flapping worker whose leases
// keep dying without heartbeats.
func TestBreakerTripsOnExpiryChurn(t *testing.T) {
	co, clk := degradeCoordinator(t, Config{LeaseTTL: time.Second, QuarantineFor: 10 * time.Second})
	submitOne(t, co, 1)
	grants := 0
	for i := 0; i < 6; i++ {
		lr := co.LeaseJobs(LeaseRequest{Worker: "flap", Max: 1})
		grants += len(lr.Leases)
		clk.advance(2 * time.Second) // the lease dies unheartbeated
	}
	if co.ctr.breakerOpens != 1 {
		t.Fatalf("expiry churn did not trip the breaker: %+v", co.ctr)
	}
	if grants != 5 {
		t.Fatalf("granted %d leases before trip, want 5 (expiry limit)", grants)
	}
	if lr := co.LeaseJobs(LeaseRequest{Worker: "flap", Max: 1}); len(lr.Leases) != 0 || lr.RetryAfterMS <= 0 {
		t.Fatalf("flapping worker not quarantined: %+v", lr)
	}
}

func degradeSpecs(n int) []JobSpec {
	specs := make([]JobSpec, n)
	for i := range specs {
		specs[i] = SpecOf(exp.Job{
			Machine: machine.CMP8(), Scheme: core.MultiTMVLazy,
			Profile: tinyProfile(), Seed: uint64(100 + i),
		})
	}
	return specs
}

// TestSubmitShedsOverload bounds the pending queue: excess jobs are shed
// with an OverloadError carrying the partial response, and the HTTP layer
// renders the shed as 429 + Retry-After.
func TestSubmitShedsOverload(t *testing.T) {
	co, _ := degradeCoordinator(t, Config{MaxPending: 2})
	specs := degradeSpecs(5)
	resp, err := co.Submit(SubmitRequest{Jobs: specs})
	over, ok := err.(*OverloadError)
	if !ok || over.RetryAfter <= 0 {
		t.Fatalf("overload not shed: %+v %v", resp, err)
	}
	if resp.Accepted != 2 || co.ctr.shedSubmits != 1 {
		t.Fatalf("partial accept: %+v %+v", resp, co.ctr)
	}
	// Accepted keys joined on retry; the rest still shed until drained.
	resp2, err2 := co.Submit(SubmitRequest{Jobs: specs})
	if _, ok := err2.(*OverloadError); !ok || resp2.Accepted != 0 || co.ctr.dedupeHits != 2 {
		t.Fatalf("retry: %+v %v %+v", resp2, err2, co.ctr)
	}
	// Preload is exempt: the coordinator's own grid seeding never sheds.
	if resp := co.Preload(degradeSpecs(8)); resp.Accepted != 6 {
		t.Fatalf("preload shed: %+v", resp)
	}

	// HTTP layer: a shed submit is 429 with a Retry-After hint and the
	// partial response in the body.
	co2, _ := degradeCoordinator(t, Config{MaxPending: 2})
	srv := httptest.NewServer(co2.Handler())
	defer srv.Close()
	body, _ := json.Marshal(SubmitRequest{Jobs: degradeSpecs(5)})
	r, err := http.Post(srv.URL+"/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", r.StatusCode)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var sr SubmitResponse
	if err := json.NewDecoder(r.Body).Decode(&sr); err != nil || sr.Accepted != 2 {
		t.Fatalf("partial body: %+v %v", sr, err)
	}
}

// TestSubmitRejectsUnresolvableSpec: a spec that does not re-hash to its
// own key is rejected, not registered — so a later clean submission of the
// real spec heals what transport corruption broke.
func TestSubmitRejectsUnresolvableSpec(t *testing.T) {
	co, _ := degradeCoordinator(t, Config{})
	good := SpecOf(exp.Job{Machine: machine.CMP8(), Scheme: core.MultiTMVLazy, Profile: tinyProfile(), Seed: 1})
	bad := good
	bad.Seed++ // corrupted in flight: key no longer matches the payload

	resp, err := co.Submit(SubmitRequest{Jobs: []JobSpec{bad}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 0 || len(resp.Rejected) != 1 || resp.Rejected[0] != good.Key {
		t.Fatalf("corrupt spec not rejected: %+v", resp)
	}
	if co.ctr.specRejects != 1 {
		t.Fatalf("counters: %+v", co.ctr)
	}
	// Not registered: the key polls as Unknown, prompting client resubmit.
	res := co.Results(ResultsRequest{Keys: []string{good.Key}})
	if len(res.Unknown) != 1 {
		t.Fatalf("rejected key should be unknown: %+v", res)
	}
	// The clean spec heals it.
	resp2, err := co.Submit(SubmitRequest{Jobs: []JobSpec{good}})
	if err != nil || resp2.Accepted != 1 {
		t.Fatalf("clean resubmission refused: %+v %v", resp2, err)
	}
}

// TestDuplicateAndReorderedCompletes races duplicate and reordered result
// deliveries against lease expiry: the winner is applied once, every
// repeat is counted as a duplicate, exactly one completion record reaches
// the journal, and the losing sibling is cancelled.
func TestDuplicateAndReorderedCompletes(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "dup.wal")
	j, err := exp.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	co, clk := degradeCoordinator(t, Config{Name: "dup", Journal: j, LeaseTTL: time.Second})
	spec := submitOne(t, co, 1)

	// w1's lease expires; the job is re-leased to w2. w1's late result then
	// arrives TWICE (a chaos-net duplicated delivery).
	lr1 := co.LeaseJobs(LeaseRequest{Worker: "w1", Max: 1})
	clk.advance(2 * time.Second)
	lr2 := co.LeaseJobs(LeaseRequest{Worker: "w2", Max: 1})
	if len(lr2.Leases) != 1 || lr2.Leases[0].Spec.Key != spec.Key {
		t.Fatalf("expired job not re-leased: %+v", lr2)
	}
	late := CompleteRequest{
		Worker: "w1", Lease: lr1.Leases[0].ID, Key: spec.Key,
		Env: sealOutcome(t, Outcome{Key: spec.Key, Worker: "w1"}),
	}
	if resp := co.Complete(late); !resp.Accepted || resp.Duplicate {
		t.Fatalf("first delivery: %+v", resp)
	}
	if resp := co.Complete(late); !resp.Accepted || !resp.Duplicate {
		t.Fatalf("duplicated delivery not deduped: %+v", resp)
	}
	// w2 lost the race; its heartbeat carries the cancellation, and its own
	// (reordered, post-finish) result is another counted duplicate.
	hb := co.Heartbeat(HeartbeatRequest{Worker: "w2", Leases: []uint64{lr2.Leases[0].ID}})
	if len(hb.Cancel) != 1 || hb.Cancel[0] != lr2.Leases[0].ID {
		t.Fatalf("sibling not cancelled: %+v", hb)
	}
	slow := CompleteRequest{
		Worker: "w2", Lease: lr2.Leases[0].ID, Key: spec.Key,
		Env: sealOutcome(t, Outcome{Key: spec.Key, Worker: "w2"}),
	}
	if resp := co.Complete(slow); !resp.Duplicate {
		t.Fatalf("reordered sibling result not deduped: %+v", resp)
	}
	if co.ctr.dupResults != 2 {
		t.Fatalf("dupResults = %d, want 2", co.ctr.dupResults)
	}

	// Exactly one completion record in the WAL: a resumed coordinator must
	// not double-count the job.
	j.Close()
	recs, err := exp.ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for _, rec := range recs {
		if rec.T == exp.RecJobDone && rec.Key == spec.Key {
			done++
		}
	}
	if done != 1 {
		t.Fatalf("journaled %d completions, want 1", done)
	}
	st, err := exp.LoadCampaign(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done[spec.Key] || len(st.Leases) != 0 {
		t.Fatalf("replayed state: done=%v leases=%+v", st.Done, st.Leases)
	}
}
