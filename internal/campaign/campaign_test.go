package campaign

import (
	"bytes"
	"flag"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/iofault"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func quiet() *slog.Logger { return slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil)) }

// TestHeaderWriteFailureIsFatal: a journal whose campaign header cannot be
// made durable could never be resumed, so Open must refuse to start.
func TestHeaderWriteFailureIsFatal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	inj := iofault.NewInjector(iofault.Plan{Seed: 1, PShort: 1}) // every write stops short
	_, err := Open("test", parse(t, "-journal", path), nil, inj, quiet())
	if err == nil || !strings.Contains(err.Error(), "campaign header") {
		t.Fatalf("Open with a failing header write: err = %v, want a campaign header error", err)
	}
}

// TestCoordinatorIgnoresLocalDurability: under -coordinator the local
// journal, resume, cache and listen flags are dropped with a
// warning, nothing is written locally and no listener is bound; -metrics is
// ignored with a warning too rather than printing the idle local executor's
// 0/0 jobs.
func TestCoordinatorIgnoresLocalDurability(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")
	cache := filepath.Join(dir, "cache")
	var log bytes.Buffer
	c, err := Open("test", parse(t, "-coordinator", "http://127.0.0.1:1", "-journal", journal,
		"-listen", "127.0.0.1:0"), &cache, nil, slog.New(slog.NewTextHandler(&log, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Journal != nil || c.Flags.Journal != "" || c.PostMortemDir != "" || cache != "" || c.Listen != "" {
		t.Fatalf("local durability survived -coordinator: journal %q, post-mortems %q, cache %q, listen %q",
			c.Flags.Journal, c.PostMortemDir, cache, c.Listen)
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Fatalf("-coordinator still created the local journal (stat err %v)", err)
	}
	if !strings.Contains(log.String(), "ignoring") || strings.Count(log.String(), "level=WARN") != 1 {
		t.Fatalf("want one warning: %q", log.String())
	}
	l := c.Runner()
	stop, err := c.Serve(l)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if strings.Contains(log.String(), "dashboard serving") {
		t.Fatalf("-listen bound a listener under -coordinator: %q", log.String())
	}
	if line := c.MetricsLine(l); line != "" {
		t.Fatalf("-metrics under -coordinator printed %q", line)
	}
	if !strings.Contains(log.String(), "-metrics") {
		t.Fatalf("-metrics ignored without a warning: %q", log.String())
	}
}

// TestResumeImpliesJournal: -resume replays the journal into State, keeps
// appending to it without a second header, and puts post-mortems in
// <journal>.postmortem.
func TestResumeImpliesJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	c, err := Open("test", parse(t, "-journal", path), nil, nil, quiet())
	if err != nil {
		t.Fatal(err)
	}
	c.Journal.Append(exp.JournalRecord{T: exp.RecJobDone, Key: "k"})
	c.Close()

	c, err = Open("test", parse(t, "-resume", path), nil, nil, quiet())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Journal == nil || !c.State.Done["k"] || c.State.Name != "test" {
		t.Fatalf("resume state not loaded: journal %v, state %+v", c.Journal, c.State)
	}
	r := c.Runner()
	if r.Runner.PostMortemDir != path+".postmortem" {
		t.Fatalf("post-mortem dir %q, want %q", r.Runner.PostMortemDir, path+".postmortem")
	}
	if r.Journal != c.Journal || !r.Resume.Done["k"] {
		t.Fatal("local runner does not carry the campaign's journal and resume state")
	}
	recs, err := exp.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	headers := 0
	for _, rec := range recs {
		if rec.T == exp.RecCampaign {
			headers++
		}
	}
	if headers != 1 {
		t.Fatalf("%d campaign headers after a resume, want 1", headers)
	}
}
