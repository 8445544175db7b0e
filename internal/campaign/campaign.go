// Package campaign is the setup the campaign CLIs (tlsreport, tlssweep,
// tlschaos) share: the execution and durability flags, the journal and the
// resumed state behind -journal/-resume, the -listen dashboard and the
// -coordinator fleet client. Each CLI adds only its own flags and job
// list; where and how the jobs run is decided here, once.
package campaign

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/iofault"
	"repro/internal/obs"
)

// Flags are the shared campaign flags, bound by Register.
type Flags struct {
	Jobs        int
	Journal     string
	Resume      string
	Listen      string
	Coordinator string
	RPCTimeout  time.Duration
	DialTimeout time.Duration
}

// Register binds the shared campaign flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := new(Flags)
	fs.IntVar(&f.Jobs, "jobs", 0, "parallel simulation workers (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&f.Journal, "journal", "", "append campaign progress to this JSONL journal (crash recovery via -resume)")
	fs.StringVar(&f.Resume, "resume", "", "resume a crashed or interrupted campaign from its journal (implies -journal)")
	fs.StringVar(&f.Listen, "listen", "", "serve the live campaign dashboard on this address (/metrics Prometheus text, /progress JSON)")
	fs.StringVar(&f.Coordinator, "coordinator", "", "run the campaign on a distributed fleet via this tlsserve URL (local journal, cache and listen flags are then ignored: they apply coordinator/worker-side)")
	fs.DurationVar(&f.RPCTimeout, "rpc-timeout", 30*time.Second, "total per-RPC deadline against the coordinator")
	fs.DurationVar(&f.DialTimeout, "dial-timeout", 5*time.Second, "connection-attempt deadline against the coordinator")
	return f
}

// Campaign is one CLI run's resolved campaign: the flags after the
// -coordinator and -resume rules applied, the open journal, and the
// replayed state of the journal being resumed.
type Campaign struct {
	*Flags
	// Name labels the campaign: the journal header, the dashboard's
	// /progress and the fleet client identity.
	Name string
	Log  *slog.Logger
	// Journal is the open campaign WAL; nil when not journaling.
	Journal *exp.Journal
	// State is the replayed -resume journal (zero on a fresh campaign).
	State exp.CampaignState
	// PostMortemDir is where a journaled campaign's quarantine manifests
	// and watchdog progress reports land: <journal>.postmortem ("" when not
	// journaling).
	PostMortemDir string
}

// Open resolves the flags into a campaign. Under -coordinator every local
// durability flag — -journal, -resume and, when the CLI has one, the cache
// directory *cache — and -listen are ignored with a warning: the
// coordinator and its workers own durability, and the fleet coordinator
// serves the dashboard. Otherwise -resume implies -journal and replays it,
// a fresh journal gets its campaign header, and post-mortems land in
// <journal>.postmortem. A header that cannot be made durable is an error:
// the campaign could never be resumed. fsys is the journal's filesystem
// seam (nil = the real OS).
func Open(name string, f *Flags, cache *string, fsys iofault.FS, log *slog.Logger) (*Campaign, error) {
	c := &Campaign{Flags: f, Name: name, Log: log}
	hasCache := cache != nil
	if !hasCache {
		cache = new(string)
	}
	if f.Coordinator != "" {
		if f.Journal != "" || f.Resume != "" || *cache != "" || f.Listen != "" {
			log.Warn("-coordinator set; local journal, resume, cache and listen flags apply coordinator/worker-side, ignoring them")
		}
		f.Journal, f.Resume, *cache, f.Listen = "", "", "", ""
		return c, nil
	}
	if f.Resume != "" {
		st, err := exp.LoadCampaign(f.Resume)
		if err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
		c.State = st
		f.Journal = f.Resume
		if hasCache && *cache == "" {
			// Completed jobs are skipped via the cache; without one they
			// simply re-run (correct, just slower).
			log.Warn("-resume without -cache re-runs completed jobs")
		}
	}
	if f.Journal == "" {
		return c, nil
	}
	j, err := exp.OpenJournalFS(fsys, f.Journal)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if f.Resume == "" {
		if err := j.Append(exp.JournalRecord{T: exp.RecCampaign, Name: name}); err != nil {
			j.Close()
			return nil, fmt.Errorf("journal %s: campaign header: %w", f.Journal, err)
		}
	}
	c.Journal = j
	c.PostMortemDir = f.Journal + ".postmortem"
	return c, nil
}

// Close closes the journal, if any.
func (c *Campaign) Close() {
	if c.Journal != nil {
		c.Journal.Close()
	}
}

// Runner returns the local executor the flags describe: an in-process
// coordinator running -jobs simulations at a time, with the journal, the
// resumed state and the post-mortem directory.
func (c *Campaign) Runner() *cluster.Local {
	return &cluster.Local{
		Workers: c.Jobs, Journal: c.Journal, Resume: c.State,
		Runner: exp.Runner{PostMortemDir: c.PostMortemDir},
	}
}

// Client returns the -coordinator fleet client; progress, when non-nil,
// fires once per arriving outcome.
func (c *Campaign) Client(progress func(exp.JobResult)) *cluster.Client {
	return &cluster.Client{
		URL: c.Coordinator, Name: cluster.ClientName(c.Name), Progress: progress,
		RPCTimeout: c.RPCTimeout, DialTimeout: c.DialTimeout,
		Logf: obs.Logf(c.Log.With("subsys", "fleet")),
	}
}

// Serve serves l's dashboard on the -listen address (a no-op without
// -listen); the caller defers the returned stop.
func (c *Campaign) Serve(l *cluster.Local) (stop func(), err error) {
	if c.Listen == "" {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", c.Listen)
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: l.Dashboard(c.Name), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	c.Log.Info("dashboard serving", "url", "http://"+ln.Addr().String()+"/metrics")
	return func() { srv.Close() }, nil
}

// MetricsLine returns l's -metrics summary line, prefixed with the campaign
// name. Under -coordinator it warns and returns "": the local executor ran
// nothing, and the fleet coordinator's /progress holds the counts.
func (c *Campaign) MetricsLine(l *cluster.Local) string {
	if c.Coordinator != "" {
		c.Log.Warn("-coordinator set; -metrics counts live on the coordinator's /progress, ignoring it")
		return ""
	}
	return c.Name + " " + l.Snapshot().String()
}

// LogInterrupted tells the operator how to continue an interrupted
// campaign; the caller then exits with exp.ExitInterrupted.
func (c *Campaign) LogInterrupted() {
	if c.Journal != nil {
		c.Log.Info("interrupted", "resume_with", c.Journal.Path())
	} else {
		c.Log.Info("interrupted (run with -journal to make campaigns resumable)")
	}
}
