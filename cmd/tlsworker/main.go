// tlsworker is one member of a distributed campaign fleet: it pulls leased
// jobs from a tlsserve coordinator, executes each lease as one attempt of
// the hardened experiment runner (watchdog, panic isolation, post-mortems,
// fault injection all intact), streams heartbeats and per-job observability
// counters back, and steals speculative work when idle. Whether a failed
// attempt runs again is the coordinator's retry policy, not the worker's.
//
// Usage:
//
//	tlsworker -coordinator http://host:8100
//	tlsworker -coordinator http://host:8100 -jobs 4 -observe
//	tlsworker -coordinator http://host:8100 -postmortem-dir .postmortem -job-timeout 2m
//
// Shutdown is graceful by default (-drain): the first SIGINT/SIGTERM stops
// pulling, interrupts in-flight simulations (they halt at their next commit;
// the coordinator re-runs them from their start), returns unfinished leases
// to the coordinator, delivers a final heartbeat, and exits 130. A second signal
// hard-exits. With -drain=false the first signal exits immediately and the
// coordinator reclaims the leases by TTL expiry.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/chaosnet"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

func main() {
	var (
		coord   = flag.String("coordinator", "", "coordinator base URL (http://host:port); required")
		name    = flag.String("name", "", "worker name (default host-pid)")
		jobs    = flag.Int("jobs", 1, "concurrent leased jobs")
		poll    = flag.Duration("poll", 500*time.Millisecond, "idle wait between empty lease pulls")
		timeout = flag.Duration("job-timeout", 0, "per-job watchdog deadline (0 disables)")
		observe = flag.Bool("observe", false, "attach an obs registry to every job and report counters on heartbeats")
		traceF  = flag.Bool("trace", false, "record attempt and quarantine spans and ship them to the coordinator's fleet trace")
		pmDir   = flag.String("postmortem-dir", "", "directory for quarantine manifests and watchdog progress reports (empty writes none)")
		drain   = flag.Bool("drain", true, "on the first signal, drain gracefully: interrupt in-flight simulations, release leases, exit 130")

		rpcTimeout  = flag.Duration("rpc-timeout", 30*time.Second, "total per-RPC deadline against the coordinator")
		dialTimeout = flag.Duration("dial-timeout", 5*time.Second, "connection-attempt deadline against the coordinator")
		chaosNet    = flag.String("chaos-net", "", "inject seeded network chaos on this worker's transport: hostile, campaign, or byzantine")
		chaosSeed   = flag.Uint64("chaos-seed", 1, "seed for the -chaos-net fault plan")
	)
	flag.Parse()

	if *coord == "" {
		fmt.Fprintln(os.Stderr, "tlsworker: -coordinator is required")
		os.Exit(2)
	}
	wname := *name
	if wname == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		wname = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	logger := obs.NewLogger(os.Stderr, "tlsworker", "worker", wname)
	logf := obs.Logf(logger)
	runner := &exp.Runner{JobTimeout: *timeout, PostMortemDir: *pmDir}
	if *traceF {
		// Attempt and post-mortem spans are retained and shipped home on
		// heartbeats and completions, where they merge into the fleet trace.
		runner.Tracer = trace.New(wname)
		runner.Tracer.Retain()
	}
	wcfg := cluster.WorkerConfig{
		Name:        wname,
		Coordinator: *coord,
		Parallel:    *jobs,
		Poll:        *poll,
		Runner:      runner,
		Observe:     *observe,
		RPCTimeout:  *rpcTimeout,
		DialTimeout: *dialTimeout,
		Logf:        logf,
	}
	if *chaosNet != "" {
		ccfg, err := chaosnet.Profile(*chaosNet, *chaosSeed)
		if err != nil {
			logger.Error("-chaos-net", "err", err)
			os.Exit(2)
		}
		logger.Info("chaos-net armed", "profile", ccfg)
		wcfg.HTTP = chaosnet.Client(
			cluster.HTTPClient(*dialTimeout, *rpcTimeout), chaosnet.New(ccfg), wname,
			obs.Logf(logger.With("subsys", "chaos-net")))
	}
	w := cluster.NewWorker(wcfg)

	// Two-stage shutdown: the first signal cancels the pull loop; Run then
	// drains (interrupt, release, final heartbeat) before
	// returning. A second signal hard-exits through the Shutdown handler.
	sd := exp.NewShutdown(nil)
	defer sd.Stop()
	if !*drain {
		go func() {
			<-sd.Context().Done()
			os.Exit(exp.ExitInterrupted)
		}()
	}

	logger.Info("pulling", "coordinator", *coord, "slots", *jobs)
	err := w.Run(sd.Context())
	if sd.Interrupted() {
		logger.Info("drained")
		sd.Stop()
		os.Exit(exp.ExitInterrupted)
	}
	if err != nil {
		logger.Error("run", "err", err)
		os.Exit(1)
	}
}
