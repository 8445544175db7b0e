package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/report"
)

func TestResolveProfileUnknownAppListsValidOnes(t *testing.T) {
	_, err := resolveProfile("bogus", 0.05)
	if err == nil {
		t.Fatal("unknown app accepted")
	}
	msg := err.Error()
	for _, want := range []string{"bogus", "valid:", "micro", "Euler", "P3m"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
	if _, err := resolveProfile("micro", 0.05); err != nil {
		t.Errorf("micro rejected: %v", err)
	}
	if p, err := resolveProfile("Euler", 0.05); err != nil || p.Name != "Euler" {
		t.Errorf("Euler: profile %v, err %v", p.Name, err)
	}
}

// TestResolveMachine: the -machine spellings tlstrace documents resolve.
func TestResolveMachine(t *testing.T) {
	if m, err := machine.ByName("NUMA"); err != nil || m.Procs != 16 {
		t.Errorf("numa: %v, %v", m, err)
	}
	if m, err := machine.ByName("cmp"); err != nil || m.Procs != 8 {
		t.Errorf("cmp: %v, %v", m, err)
	}
	if _, err := machine.ByName("torus"); err == nil {
		t.Error("bogus machine accepted")
	}
}

// TestUnknownAppExitCode re-executes the test binary as tlstrace with a
// bogus -app and asserts the documented contract: exit code 2 and a message
// listing the valid applications.
func TestUnknownAppExitCode(t *testing.T) {
	if os.Getenv("TLSTRACE_RUN_MAIN") == "1" {
		os.Args = []string{"tlstrace", "-app", "no-such-app"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestUnknownAppExitCode")
	cmd.Env = append(os.Environ(), "TLSTRACE_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("expected an exit error, got %v (output %q)", err, out)
	}
	if ee.ExitCode() != 2 {
		t.Fatalf("exit code = %d, want 2 (output %q)", ee.ExitCode(), out)
	}
	if !strings.Contains(string(out), "valid:") || !strings.Contains(string(out), "micro") {
		t.Fatalf("error output does not list valid applications: %q", out)
	}
}

func TestValidateFileRoundTrip(t *testing.T) {
	prof := report.MicroWorkload(12)
	scheme, _ := repro.SchemeFromString("MultiT&MV Eager AMM")
	s := repro.NewSimulator(repro.CMP8(), scheme, prof, 1)
	s.EnableTrace()
	s.Observe(obs.Config{Registry: obs.NewRegistry(), SamplePeriod: 200})
	r := s.Run()

	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.ExportPerfetto(f, r, s.Sampled()); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var sb strings.Builder
	if err := validateFile(&sb, path); err != nil {
		t.Fatalf("round-trip validation failed: %v", err)
	}
	if !strings.Contains(sb.String(), "valid trace-event JSON") {
		t.Errorf("unexpected report: %q", sb.String())
	}

	if err := validateFile(&sb, filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file validated")
	}
}
