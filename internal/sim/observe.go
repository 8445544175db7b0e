package sim

import (
	"strconv"

	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/obs"
)

// simObs bundles the simulator's observability handles. A nil *simObs is the
// disabled layer: every hook method no-ops after one nil check, so an
// unobserved run is bit-for-bit the run a simulator without the field would
// execute (the observer-effect regression tests hold it to that).
type simObs struct {
	reg     *obs.Registry
	sampler *obs.Sampler

	// Counters with no other source, counted per event.
	tasksStarted  *obs.Counter
	tasksFinished *obs.Counter
	wastedCycles  *obs.Counter

	// Counters the simulator and its components already keep, written by
	// publish once the run ends.
	commits, squashEvents, tasksSquashed    *obs.Counter
	dirReads, dirWrites, dirViolations      *obs.Counter
	memWritebacks, memRejected, netMessages *obs.Counter

	execHist   *obs.Histogram
	commitHist *obs.Histogram
	distHist   *obs.Histogram
}

// Observe installs an observability registry and gauge sampler on the
// simulator. Call before Run; a nil cfg.Registry leaves observability
// disabled. Metrics are pure reads of simulation state — installing them
// never changes a run's Result (enforced by the observer-effect tests).
func (s *Simulator) Observe(cfg obs.Config) {
	if cfg.Registry == nil {
		return
	}
	o := &simObs{
		reg:     cfg.Registry,
		sampler: obs.NewSampler(cfg.SamplePeriod),

		tasksStarted:  cfg.Registry.Counter("sim_tasks_started"),
		tasksFinished: cfg.Registry.Counter("sim_tasks_finished"),
		commits:       cfg.Registry.Counter("sim_commits"),
		squashEvents:  cfg.Registry.Counter("sim_squash_events"),
		tasksSquashed: cfg.Registry.Counter("sim_tasks_squashed"),
		wastedCycles:  cfg.Registry.Counter("sim_wasted_cycles"),
		dirReads:      cfg.Registry.Counter("dir_reads"),
		dirWrites:     cfg.Registry.Counter("dir_writes"),
		dirViolations: cfg.Registry.Counter("dir_violations"),
		memWritebacks: cfg.Registry.Counter("mem_writebacks"),
		memRejected:   cfg.Registry.Counter("mem_writebacks_rejected"),
		netMessages:   cfg.Registry.Counter("net_messages"),

		execHist:   cfg.Registry.Histogram("sim_exec_cycles_per_task", []uint64{100, 300, 1000, 3000, 10000, 30000, 100000}),
		commitHist: cfg.Registry.Histogram("sim_commit_cycles_per_task", []uint64{10, 30, 100, 300, 1000, 3000, 10000}),
		distHist:   cfg.Registry.Histogram("sim_squash_distance", []uint64{1, 2, 4, 8, 16, 32}),
	}

	// Gauge sources, polled at the sampling cadence. Every closure only
	// reads state. Aggregate occupancies first, then one cache-occupancy
	// track per processor.
	o.sampler.Register("spec_tasks_live", func(uint64) int64 {
		return int64(s.liveSpec)
	})
	o.sampler.Register("dir_words_live", func(uint64) int64 {
		return int64(s.dir.LiveWords())
	})
	o.sampler.Register("net_inflight", func(cycle uint64) int64 {
		return int64(s.net.InFlight(event.Time(cycle)))
	})
	o.sampler.Register("event_queue_len", func(uint64) int64 {
		return int64(s.q.Len())
	})
	o.sampler.Register("ovf_lines", func(uint64) int64 {
		n := 0
		for _, p := range s.procs {
			n += p.ovf.Len()
		}
		return int64(n)
	})
	o.sampler.Register("mhb_entries", func(uint64) int64 {
		n := 0
		for _, p := range s.procs {
			n += p.mhb.Len()
		}
		return int64(n)
	})
	for _, p := range s.procs {
		p := p
		o.sampler.Register("l2_lines_p"+strconv.Itoa(int(p.id)), func(uint64) int64 {
			return int64(p.l2.LiveLines())
		})
	}

	s.obs = o
}

// Sampled returns the gauge time series recorded so far (zero Series when
// observability is disabled).
func (s *Simulator) Sampled() obs.Series {
	if s.obs == nil {
		return obs.Series{}
	}
	return s.obs.sampler.Series()
}

// ObsRegistry returns the installed registry (nil when disabled).
func (s *Simulator) ObsRegistry() *obs.Registry {
	if s.obs == nil {
		return nil
	}
	return s.obs.reg
}

func (o *simObs) poll(now event.Time) {
	if o == nil {
		return
	}
	o.sampler.Poll(uint64(now))
}

// force takes the final end-of-section row.
func (o *simObs) force(now event.Time) {
	if o == nil {
		return
	}
	o.sampler.Force(uint64(now))
}

func (o *simObs) taskStarted() {
	if o == nil {
		return
	}
	o.tasksStarted.Inc()
}

func (o *simObs) taskFinished(execCycles event.Time) {
	if o == nil {
		return
	}
	o.tasksFinished.Inc()
	o.execHist.Observe(uint64(execCycles))
}

func (o *simObs) commitDone(commitCycles event.Time) {
	if o == nil {
		return
	}
	o.commitHist.Observe(uint64(commitCycles))
}

func (o *simObs) taskSquashed(wasted event.Time, reader, writer ids.TaskID) {
	if o == nil {
		return
	}
	o.wastedCycles.Add(uint64(wasted))
	if writer != ids.None && reader.After(writer) {
		o.distHist.Observe(uint64(reader) - uint64(writer))
	}
}

// publish adds the run's commit and squash counts and its components'
// statistics to the registry. Run calls it once, however the run ends.
func (s *Simulator) publish() {
	o := s.obs
	if o == nil {
		return
	}
	o.commits.Add(uint64(s.commits))
	o.squashEvents.Add(uint64(s.squashEvents))
	o.tasksSquashed.Add(uint64(s.tasksSquashed))
	reads, writes, violations := s.dir.Stats()
	o.dirReads.Add(reads)
	o.dirWrites.Add(writes)
	o.dirViolations.Add(violations)
	writebacks, rejected := s.mem.Stats()
	o.memWritebacks.Add(writebacks)
	o.memRejected.Add(rejected)
	o.netMessages.Add(s.net.Messages())
}
