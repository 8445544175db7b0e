package cluster

import (
	"context"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster/chaosnet"
	"repro/internal/exp"
)

// hostilePlan is the in-test equivalent of the CLI hostile profile, with a
// bounded fault budget so the network eventually heals and the campaign is
// guaranteed to converge. Corruption is deliberately absent: byzantine
// behaviour is injected through a dedicated worker instead, so the client's
// spec-rejection healing is not racing the breaker drill.
func hostilePlan(seed uint64) *chaosnet.Plan {
	return chaosnet.New(chaosnet.Config{
		Seed:          seed,
		DropProb:      0.15,
		BlackholeProb: 0.10,
		DelayProb:     0.20,
		DelayMax:      25 * time.Millisecond,
		DupProb:       0.12,
		ReorderProb:   0.10,
		ReorderHold:   10 * time.Millisecond,
		TruncProb:     0.10,
		MaxFaults:     60,
	})
}

// TestChaosFleetParity is the end-to-end degradation drill: a campaign run
// through a coordinator behind a refusing/delaying listener, first poisoned
// by a byzantine worker (every request body corrupted) until the circuit
// breaker quarantines it, then finished by healthy workers and a client on
// hostile transports — and the results must be byte-identical to a serial
// local run.
func TestChaosFleetParity(t *testing.T) {
	jobs := testJobs()
	local := serialResults(jobs)

	cache, err := exp.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(Config{
		Name: "chaosparity", Cache: cache,
		LeaseTTL:      2 * time.Second,
		QuarantineFor: 500 * time.Millisecond,
	})
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The coordinator's own edge misbehaves too: one accept-refusing
	// partition plus connection delays.
	co.Serve(&chaosnet.Listener{
		Listener: raw,
		Plan: chaosnet.New(chaosnet.Config{
			Seed: 11, DelayProb: 0.2, DelayMax: 10 * time.Millisecond,
			Partitions: []chaosnet.Partition{{Start: 100 * time.Millisecond, Dur: 300 * time.Millisecond}},
			MaxFaults:  40,
		}),
		Self: "coordinator",
		Logf: t.Logf,
	})
	defer co.Stop()
	url := "http://" + raw.Addr().String()

	// Seed the queue so the byzantine worker has something to poison; the
	// client later re-submits the same specs idempotently.
	specs := make([]JobSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = SpecOf(j)
	}
	if resp := co.Preload(specs); resp.Accepted != len(jobs) {
		t.Fatalf("preload: %+v", resp)
	}

	// Phase 1: the byzantine worker. Every request it sends has one digit
	// flipped, so its completions are CRC garbage; it must end up
	// quarantined, having contributed nothing.
	byzCtx, byzStop := context.WithCancel(context.Background())
	byz := NewWorker(WorkerConfig{
		Name: "byz", Coordinator: url, Parallel: 3, Poll: 20 * time.Millisecond,
		HTTP: chaosnet.Client(httpClient(0, 0), chaosnet.New(chaosnet.Byzantine(5)), "byz", nil),
	})
	byzDone := make(chan struct{})
	go func() { defer close(byzDone); byz.Run(byzCtx) }()

	quarantined := func() bool { return co.Counts().Quarantined >= 1 }
	for deadline := time.Now().Add(90 * time.Second); !quarantined(); {
		if time.Now().After(deadline) {
			byzStop()
			t.Fatalf("byzantine worker never quarantined: %+v", co.Counts())
		}
		time.Sleep(20 * time.Millisecond)
	}
	byzStop()
	<-byzDone
	co.mu.Lock()
	crcRejected, breakerOpens := co.ctr.crcRejected, co.ctr.breakerOpens
	co.mu.Unlock()
	if crcRejected < 3 || breakerOpens < 1 {
		t.Fatalf("breaker drill: crcRejected=%d breakerOpens=%d", crcRejected, breakerOpens)
	}

	// Phase 2: honest workers behind hostile transports finish the campaign.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var done []chan struct{}
	for i, name := range []string{"good1", "good2"} {
		w := NewWorker(WorkerConfig{
			Name: name, Coordinator: url, Poll: 20 * time.Millisecond, Observe: true,
			HTTP: chaosnet.Client(httpClient(0, 0), hostilePlan(uint64(100+i)), name, nil),
		})
		ch := make(chan struct{})
		done = append(done, ch)
		go func() { defer close(ch); w.Run(ctx) }()
	}
	client := &Client{
		URL: url, Name: "drill", Poll: 20 * time.Millisecond, Seed: 7,
		HTTP: chaosnet.Client(httpClient(0, 0), hostilePlan(900), "client", nil),
		Logf: t.Logf,
	}
	remote, err := client.RunBatch(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for _, ch := range done {
		<-ch
	}

	for i := range jobs {
		if remote[i].Err != nil {
			t.Fatalf("job %d (%s): %v", i, jobs[i].Label(), remote[i].Err)
		}
		if !reflect.DeepEqual(local[i].Result, remote[i].Result) {
			t.Fatalf("job %d (%s): chaos-fleet result differs from local run", i, jobs[i].Label())
		}
		if !reflect.DeepEqual(local[i].Chaos, remote[i].Chaos) {
			t.Fatalf("job %d (%s): chaos verdict differs", i, jobs[i].Label())
		}
	}
	if n := co.Counts(); n.Failed != 0 || n.Pending != 0 || n.Leased != 0 {
		t.Fatalf("campaign census after completion: %+v", n)
	}
}
