package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

func fixedClock(start time.Time, step time.Duration) func() time.Time {
	at := start
	return func() time.Time {
		at = at.Add(step)
		return at
	}
}

func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	tr.Retain()
	tr.SetClock(time.Now)
	if id := tr.Emit(Span{Name: "x"}); id != 0 {
		t.Fatalf("nil Emit returned %d, want 0", id)
	}
	if id := tr.Instant(Span{Name: "x"}); id != 0 {
		t.Fatalf("nil Instant returned %d, want 0", id)
	}
	if id := tr.Since(time.Now(), Span{Name: "x"}); id != 0 {
		t.Fatalf("nil Since returned %d, want 0", id)
	}
	if got := tr.Dump(); got != nil {
		t.Fatalf("nil Dump returned %v, want nil", got)
	}
	if got := tr.Drain(); got != nil {
		t.Fatalf("nil Drain returned %v, want nil", got)
	}
	tr.Requeue([]Span{{Name: "x"}})
	if tr.NextID() != 0 || tr.Emitted() != 0 || tr.Dropped() != 0 || tr.Proc() != "" {
		t.Fatal("nil accessors should all be zero")
	}
	if !tr.Now().IsZero() {
		t.Fatal("nil Now should be the zero time")
	}
}

func TestRingWrap(t *testing.T) {
	tr := New("w1")
	total := DefaultRingSize*2 + 7
	for i := 0; i < total; i++ {
		tr.Emit(Span{Name: fmt.Sprintf("s%d", i), Start: int64(i)})
	}
	dump := tr.Dump()
	if len(dump) != DefaultRingSize {
		t.Fatalf("dump length %d, want %d", len(dump), DefaultRingSize)
	}
	// Oldest first: the dump must be exactly the last DefaultRingSize spans.
	for i, sp := range dump {
		want := fmt.Sprintf("s%d", total-DefaultRingSize+i)
		if sp.Name != want {
			t.Fatalf("dump[%d].Name = %q, want %q", i, sp.Name, want)
		}
	}
	if tr.Emitted() != uint64(total) {
		t.Fatalf("Emitted = %d, want %d", tr.Emitted(), total)
	}
}

func TestPartialRingDump(t *testing.T) {
	tr := New("w1")
	tr.Emit(Span{Name: "a"})
	tr.Emit(Span{Name: "b"})
	dump := tr.Dump()
	if len(dump) != 2 || dump[0].Name != "a" || dump[1].Name != "b" {
		t.Fatalf("partial dump = %v", dump)
	}
}

func TestCrossProcessIDUniqueness(t *testing.T) {
	a, b := New("worker-a"), New("worker-b")
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		for _, tr := range []*Tracer{a, b} {
			id := tr.Emit(Span{Name: "s"})
			if id == 0 {
				t.Fatal("minted span ID 0")
			}
			if seen[id] {
				t.Fatalf("duplicate span ID %d across processes", id)
			}
			seen[id] = true
		}
	}
}

func TestDrainAndRequeue(t *testing.T) {
	tr := New("w1")
	tr.Retain()
	tr.Emit(Span{Name: "a"})
	tr.Emit(Span{Name: "b"})
	got := tr.Drain()
	if len(got) != 2 {
		t.Fatalf("drained %d spans, want 2", len(got))
	}
	if tr.Drain() != nil {
		t.Fatal("second drain should be empty")
	}
	// A failed shipment requeues; new emissions append after the requeued.
	tr.Requeue(got)
	tr.Emit(Span{Name: "c"})
	again := tr.Drain()
	if len(again) != 3 || again[0].Name != "a" || again[2].Name != "c" {
		t.Fatalf("requeue+drain = %v", again)
	}
	// Drain never clears the flight recorder.
	if len(tr.Dump()) != 3 {
		t.Fatalf("flight recorder lost spans after drain: %d", len(tr.Dump()))
	}
}

func TestNoRetentionWithoutRetain(t *testing.T) {
	tr := New("w1")
	tr.Emit(Span{Name: "a"})
	if tr.Drain() != nil {
		t.Fatal("tracer without Retain should keep nothing to drain")
	}
}

func TestSinceAndInstant(t *testing.T) {
	tr := New("w1")
	base := time.Unix(1000, 0)
	tr.SetClock(fixedClock(base, time.Millisecond))
	start := tr.Now() // base+1ms
	id := tr.Since(start, Span{Name: "op", Kind: KindAttempt})
	if id == 0 {
		t.Fatal("Since returned 0")
	}
	dump := tr.Dump()
	sp := dump[len(dump)-1]
	if sp.Start != UnixMicro(start) {
		t.Fatalf("span start %d, want %d", sp.Start, UnixMicro(start))
	}
	if sp.Dur != 1000 { // one 1ms clock step
		t.Fatalf("span dur %d µs, want 1000", sp.Dur)
	}
	if sp.Proc != "w1" {
		t.Fatalf("span proc %q, want w1", sp.Proc)
	}
	tr.Instant(Span{Name: "mark"})
	dump = tr.Dump()
	if got := dump[len(dump)-1]; got.Dur != 0 || got.Start == 0 {
		t.Fatalf("instant span = %+v", got)
	}
}

// TestConcurrentSpanEmission exercises concurrent Emit/Dump/Drain from many
// goroutines — the shard-lane emission pattern — and is meaningful chiefly
// under -race.
func TestConcurrentSpanEmission(t *testing.T) {
	tr := New("w1")
	tr.Retain()
	const lanes, per = 8, 200
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Emit(Span{Name: "lane", Attempt: lane, Start: int64(i)})
				if i%16 == 0 {
					tr.Dump()
				}
			}
		}(l)
	}
	drained := 0
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		drained += len(tr.Drain())
		select {
		case <-done:
			drained += len(tr.Drain())
			if tr.Emitted() != lanes*per {
				t.Fatalf("emitted %d, want %d", tr.Emitted(), lanes*per)
			}
			if uint64(drained)+tr.Dropped() != lanes*per {
				t.Fatalf("drained %d + dropped %d, want %d", drained, tr.Dropped(), lanes*per)
			}
			return
		default:
		}
	}
}

func TestMintCampaign(t *testing.T) {
	a := MintCampaign("sweep", time.Unix(1, 0))
	b := MintCampaign("sweep", time.Unix(2, 0))
	if a == b {
		t.Fatalf("two mints at different instants collided: %s", a)
	}
	if len(a) < len("sweep-")+8 {
		t.Fatalf("campaign ID too short: %s", a)
	}
}

func TestExportPerfettoLayout(t *testing.T) {
	coord := New("coordinator")
	coord.Retain()
	w1 := New("worker-1")
	w1.Retain()

	// One job's life: queue wait and lease on the coordinator, attempt on
	// the worker, completion back on the coordinator — all tied by Flow 42.
	coord.Emit(Span{Name: "job1", Kind: KindQueue, Start: 100, Dur: 50, Campaign: "c-1", Key: "k1"})
	coord.Emit(Span{Name: "job1", Kind: KindLease, Start: 150, Dur: 400, Campaign: "c-1", Key: "k1", Flow: 42})
	w1.Emit(Span{Name: "job1", Kind: KindAttempt, Start: 200, Dur: 250, Campaign: "c-1", Key: "k1", Attempt: 1, Flow: 42})
	coord.Emit(Span{Name: "job1", Kind: KindComplete, Start: 500, Campaign: "c-1", Key: "k1", Flow: 42})

	spans := append(coord.Drain(), w1.Drain()...)
	var buf bytes.Buffer
	if err := ExportPerfetto(&buf, "coordinator", spans); err != nil {
		t.Fatalf("ExportPerfetto: %v", err)
	}

	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	pids := make(map[float64]string)
	starts, finishes, steps := 0, 0, 0
	for _, ev := range file.TraceEvents {
		switch ev["ph"] {
		case "M":
			if ev["name"] == "process_name" {
				args := ev["args"].(map[string]any)
				pids[ev["pid"].(float64)] = args["name"].(string)
			}
		case "s":
			starts++
		case "f":
			finishes++
		case "t":
			steps++
		}
	}
	if len(pids) != 2 {
		t.Fatalf("want 2 processes, got %v", pids)
	}
	if pids[0] != "coordinator" {
		t.Fatalf("pid 0 = %q, want coordinator", pids[0])
	}
	if starts != 1 || finishes != 1 || steps != 1 {
		t.Fatalf("flow chain s/t/f = %d/%d/%d, want 1/1/1", starts, steps, finishes)
	}

	// Re-export contract: the merge order the coordinator collected spans
	// in does not matter; the same spans always give the same bytes.
	shuffled := append([]Span(nil), spans...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	var again bytes.Buffer
	if err := ExportPerfetto(&again, "coordinator", shuffled); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatalf("re-export of shuffled spans differs:\n%s\n%s", buf.Bytes(), again.Bytes())
	}
}

// TestExportPerfettoFixture pins the fleet layout: testdata/fleet_fixture.json
// is the export of fleetFixture by the fleet exporter that predates the
// shared trace-event writer (indented JSON), with the lane of the retired
// checkpoint span kind folded into "events". The current export must decode
// to the same events in the same order, whatever the input order.
func TestExportPerfettoFixture(t *testing.T) {
	want, err := os.ReadFile("testdata/fleet_fixture.json")
	if err != nil {
		t.Fatal(err)
	}
	spans := fleetFixture()
	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		if err := ExportPerfetto(&buf, "coordinator", spans); err != nil {
			t.Fatal(err)
		}
		if got, wantEvs := decodeEvents(t, buf.Bytes()), decodeEvents(t, want); !reflect.DeepEqual(got, wantEvs) {
			t.Fatalf("export differs from the fixture:\ngot  %v\nwant %v", got, wantEvs)
		}
		for l, r := 0, len(spans)-1; l < r; l, r = l+1, r-1 {
			spans[l], spans[r] = spans[r], spans[l]
		}
	}
}

// fleetFixture covers every layout rule: three processes (the coordinator
// plus two workers that sort by name), a nameless span of a kind outside
// the lane table and an older worker's "checkpoint" instant that shares its
// lane, instants, start-time ties broken by ID, and flow chains
// of three and two spans ending on an instant or a slice, and of one span
// (which draws no arrow).
func fleetFixture() []Span {
	return []Span{
		{ID: 11, Proc: "coordinator", Name: "job1", Kind: KindQueue, Start: 1_000_100, Dur: 50, Campaign: "c-1", Key: "k1"},
		{ID: 12, Proc: "coordinator", Name: "job1", Kind: KindLease, Start: 1_000_150, Dur: 400, Campaign: "c-1", Key: "k1", Flow: 42},
		{ID: 21, Proc: "worker-b", Name: "job1", Kind: KindAttempt, Start: 1_000_200, Dur: 250, Campaign: "c-1", Key: "k1", Attempt: 1, Flow: 42},
		{ID: 13, Proc: "coordinator", Name: "job1", Kind: KindComplete, Start: 1_000_500, Campaign: "c-1", Key: "k1", Flow: 42},
		{ID: 31, Proc: "worker-a", Name: "", Kind: "gc-pause", Start: 1_000_200, Dur: 30, Note: "unnamed, unknown kind"},
		{ID: 32, Proc: "worker-a", Name: "job2", Kind: "checkpoint", Start: 1_000_300, Key: "k2", Flow: 7},
		{ID: 14, Proc: "coordinator", Name: "job2", Kind: KindLease, Start: 1_000_120, Dur: 600, Key: "k2", Flow: 7, Err: "lease expired"},
		{ID: 33, Proc: "worker-a", Name: "job2", Kind: KindQuarantine, Start: 1_000_700, Key: "k2", Attempt: 2, Note: "panic"},
		{ID: 15, Proc: "coordinator", Name: "job3", Kind: KindCacheHit, Start: 1_000_100, Key: "k3"},
		{ID: 16, Proc: "coordinator", Name: "lonely", Kind: KindSteal, Start: 1_000_400, Dur: 5, Flow: 99},
		{ID: 17, Proc: "coordinator", Name: "job4", Kind: KindLease, Start: 1_000_600, Dur: 100, Key: "k4", Flow: 5},
		{ID: 34, Proc: "worker-a", Name: "job4", Kind: KindAttempt, Start: 1_000_650, Dur: 40, Key: "k4", Attempt: 1, Flow: 5},
	}
}

func decodeEvents(t *testing.T, doc []byte) []any {
	t.Helper()
	var file struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &file); err != nil {
		t.Fatalf("not trace-event JSON: %v", err)
	}
	return file.TraceEvents
}

func TestExportPerfettoEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportPerfetto(&buf, "coordinator", nil); err == nil {
		t.Fatal("exporting zero spans should error")
	}
}
