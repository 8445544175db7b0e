// tlsserve is the distributed-campaign coordinator: it owns the job queue,
// hands time-bounded leases to tlsworker processes, dedupes submissions
// through the persistent result cache, journals every lease and completion
// to the campaign WAL (a SIGKILL'd coordinator resumes mid-campaign with
// -resume), lets an idle worker steal one duplicate of a long-held lease,
// sheds submissions past -max-pending, and serves the merged fleet
// dashboard on /metrics and /progress.
//
// Usage:
//
//	tlsserve -listen :8100 -cache .tlscache -journal fleet.wal
//	tlsserve -resume fleet.wal -cache .tlscache          # after a crash
//	tlsserve -grid NUMA16 -apps Tree,Euler -seed 2        # preload a sweep
//	tlsserve -lease-ttl 30s -steal-after 30s -max-pending 5000
//
// Clients (tlsreport/tlssweep/tlschaos with -coordinator, or raw HTTP)
// submit jobs; workers (tlsworker -coordinator URL) pull, execute and
// report. With -exit-when-done the process exits 0 once every submitted job
// has a final outcome — the batch-mode used by scripted campaigns.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/cluster/chaosnet"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:8100", "coordinator listen address")
		cacheDir = flag.String("cache", "", "persistent result-cache directory (dedupes submissions, absorbs fleet results)")
		journalF = flag.String("journal", "", "append the campaign WAL to this JSONL file (crash recovery via -resume)")
		resumeF  = flag.String("resume", "", "resume a crashed coordinator from its journal (implies -journal)")
		leaseTTL = flag.Duration("lease-ttl", 30*time.Second, "lease lifetime without a heartbeat")
		stealW   = flag.Duration("steal-after", 30*time.Second, "an idle worker steals the one duplicate of a lease this old (0 disables)")
		gridF    = flag.String("grid", "", "preload a grid campaign on this machine (NUMA16, NUMA16.L2, CMP8, NUMA<n>)")
		schemesF = flag.String("schemes", "", "semicolon-separated schemes for -grid (default: the Figure 9 set)")
		appsF    = flag.String("apps", "", "comma-separated application subset for -grid (default: full standard suite)")
		seed     = flag.Uint64("seed", 1, "workload seed for -grid")
		exitDone = flag.Bool("exit-when-done", false, "exit 0 once every submitted job has a final outcome")
		name     = flag.String("name", "tlsserve", "campaign name (journal header, dashboard)")
		traceF   = flag.String("trace", "", "write the merged fleet Perfetto trace to this file at exit (workers need -trace to contribute lanes)")

		maxPending = flag.Int("max-pending", 0, "bound the pending queue; excess submissions are shed with 429 + Retry-After (0 = unbounded)")
		quarantine = flag.Duration("quarantine-for", 30*time.Second, "circuit-breaker base quarantine for flapping/byzantine workers")

		chaosNet  = flag.String("chaos-net", "", "inject seeded accept-side network chaos: hostile, campaign, or byzantine")
		chaosSeed = flag.Uint64("chaos-seed", 1, "seed for the -chaos-net fault plan")
	)
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, "tlsserve")
	die := func(context string, err error) {
		if err != nil {
			logger.Error(context, "err", err)
			os.Exit(1)
		}
	}

	cfg := cluster.Config{
		Name:          *name,
		LeaseTTL:      *leaseTTL,
		StealAfter:    durOff(*stealW),
		MaxPending:    *maxPending,
		QuarantineFor: *quarantine,
	}
	if *cacheDir != "" {
		cache, err := exp.NewCache(*cacheDir)
		die("cache", err)
		cfg.Cache = cache
	}
	if *traceF != "" {
		cfg.Tracer = trace.New("coordinator")
	}

	journalPath := *journalF
	if *resumeF != "" {
		journalPath = *resumeF
		st, err := exp.LoadCampaign(*resumeF)
		die("resume", err)
		cfg.State = st
		logger.Info("resuming campaign from WAL",
			"journal", *resumeF, "campaign", st.Campaign,
			"done", len(st.Done), "dangling_leases", len(st.Leases))
		if *cacheDir == "" {
			logger.Warn("-resume without -cache re-runs completed non-chaotic jobs")
		}
	}
	if journalPath != "" {
		j, err := exp.OpenJournal(journalPath)
		die("journal", err)
		defer j.Close()
		cfg.Journal = j
	}

	co := cluster.NewCoordinator(cfg)
	logger = logger.With("campaign", co.Campaign())
	ln, err := net.Listen("tcp", *listen)
	die("listen", err)
	addr := ln.Addr().String()
	if *chaosNet != "" {
		ccfg, err := chaosnet.Profile(*chaosNet, *chaosSeed)
		die("chaos-net", err)
		logger.Info("chaos-net armed", "profile", ccfg)
		ln = &chaosnet.Listener{
			Listener: ln,
			Plan:     chaosnet.New(ccfg),
			Self:     "coordinator",
			Logf:     obs.Logf(logger.With("subsys", "chaos-net")),
		}
	}
	co.Serve(ln)
	// Stdout, not the structured log: the drill scripts and humans alike
	// parse this line for the bound address.
	fmt.Printf("tlsserve: listening on http://%s\n", addr)
	logger.Info("serving", "addr", addr)

	if *gridF != "" {
		specs, err := gridSpecs(*gridF, *schemesF, *appsF, *seed)
		die("grid", err)
		resp := co.Preload(specs)
		logger.Info("preloaded grid campaign", "jobs", resp.Accepted, "already_done", resp.Done)
	}

	// writeTrace exports the merged fleet trace (coordinator lanes plus every
	// span shipped home on heartbeats and completions) once the campaign ends.
	writeTrace := func() {
		if *traceF == "" {
			return
		}
		if err := co.WriteFleetTrace(nil, *traceF); err != nil {
			logger.Error("fleet trace", "err", err)
			return
		}
		logger.Info("fleet trace written", "path", *traceF)
	}

	// First SIGINT/SIGTERM stops serving and flushes the journal (exit 130);
	// a second hard-exits. Workers survive a coordinator death: leases ride
	// out in the WAL and a -resume picks the campaign back up.
	sd := exp.NewShutdown(nil)
	defer sd.Stop()

	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	// -exit-when-done waits for the campaign to look finished on two ticks
	// in a row: a client polls every 200ms, so the extra tick lets it
	// collect the last outcomes (or submit its next batch) before the
	// coordinator goes away.
	finished := false
	for {
		select {
		case <-sd.Context().Done():
			co.Stop()
			writeTrace()
			logger.Info("interrupted", "resume_with", journalPath)
			sd.Stop()
			os.Exit(exp.ExitInterrupted)
		case <-tick.C:
			if !*exitDone {
				continue
			}
			n := co.Counts()
			wasFinished := finished
			finished = n.Total > 0 && n.Pending == 0 && n.Leased == 0
			if finished && wasFinished {
				co.Stop()
				writeTrace()
				logger.Info("campaign complete", "done", n.Done, "failed", n.Failed)
				if n.Failed > 0 {
					os.Exit(1)
				}
				return
			}
		}
	}
}

// durOff maps the CLI convention (0 disables) onto the Config convention
// (0 means default, negative disables).
func durOff(d time.Duration) time.Duration {
	if d == 0 {
		return -1
	}
	return d
}

// gridSpecs builds the wire specs of a figure-grid campaign, constructing
// exactly the jobs a later `tlsreport -coordinator` run with the same
// machine, apps and seed will ask for (same scaling, same order, same keys).
func gridSpecs(machineName, schemesSpec, appsSpec string, seed uint64) ([]cluster.JobSpec, error) {
	mach, err := machine.ByName(machineName)
	if err != nil {
		return nil, err
	}
	schemes := report.Figure9Schemes()
	if schemesSpec != "" {
		schemes = schemes[:0]
		for _, sname := range strings.Split(schemesSpec, ";") {
			s, ok := core.SchemeFromString(strings.TrimSpace(sname))
			if !ok {
				return nil, fmt.Errorf("unknown scheme %q", sname)
			}
			schemes = append(schemes, s)
		}
	}
	opt := report.Options{Seed: seed}
	if appsSpec != "" {
		for _, aname := range strings.Split(appsSpec, ",") {
			p, ok := repro.AppByName(strings.TrimSpace(aname))
			if !ok {
				return nil, fmt.Errorf("unknown application %q", aname)
			}
			opt.Apps = append(opt.Apps, workload.StandardScale(p))
		}
	}
	jobs := report.GridJobs(mach, schemes, opt)
	specs := make([]cluster.JobSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = cluster.SpecOf(j)
	}
	return specs, nil
}
