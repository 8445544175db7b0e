package fsck

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/workload"
)

func writeJournal(t *testing.T, path string, recs ...exp.JournalRecord) {
	t.Helper()
	j, err := exp.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

func tinyJob() exp.Job {
	return exp.Job{
		Machine: machine.CMP8(),
		Scheme:  core.MultiTMVLazy,
		Profile: workload.Euler().Scale(0.02, 0.02, 0.1),
		Seed:    1,
	}
}

// A healthy state directory fscks clean.
func TestFsckCleanState(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	cacheDir := filepath.Join(dir, "cache")

	job := tinyJob()
	cache, err := exp.NewCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(job, (&exp.Runner{}).Run(context.Background(), job, exp.Attempt{N: 1}).Result); err != nil {
		t.Fatal(err)
	}
	writeJournal(t, jpath,
		exp.JournalRecord{T: exp.RecCampaign, Name: "clean"},
		exp.JournalRecord{T: exp.RecJobStart, Key: job.Key()},
		exp.JournalRecord{T: exp.RecJobDone, Key: job.Key()},
	)

	rep, err := Run(Options{Journal: jpath, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean state reported problems: %v", rep.Problems)
	}
	if rep.JournalRecords != 3 || rep.DoneJobs != 1 || rep.CacheValid != 1 {
		t.Fatalf("unexpected report: %s", rep.Summary())
	}
	if len(rep.Warnings) != 0 {
		t.Fatalf("clean state produced warnings: %v", rep.Warnings)
	}
}

// A torn journal tail is detected, and -repair truncates it so a rerun
// verifies clean.
func TestFsckTornJournalTailRepaired(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	writeJournal(t, jpath,
		exp.JournalRecord{T: exp.RecCampaign, Name: "torn"},
		exp.JournalRecord{T: exp.RecJobDone, Key: "job-1"},
	)
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"t":"job-done","key":"job-2"`) // no closing brace, no newline
	f.Close()

	rep, err := Run(Options{Journal: jpath})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || rep.JournalTornBytes == 0 {
		t.Fatalf("torn tail not detected: %s", rep.Summary())
	}

	rep, err = Run(Options{Journal: jpath, Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Repairs) == 0 {
		t.Fatalf("repair mode fixed nothing: %s", rep.Summary())
	}
	rep, err = Run(Options{Journal: jpath})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("journal still dirty after repair: %v", rep.Problems)
	}
	if rep.JournalRecords != 2 {
		t.Fatalf("repair lost records: %d, want 2", rep.JournalRecords)
	}
}

// Interior journal corruption is a problem repair must NOT paper over.
func TestFsckInteriorCorruptionUnrepairable(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	writeJournal(t, jpath,
		exp.JournalRecord{T: exp.RecCampaign, Name: "x"},
		exp.JournalRecord{T: exp.RecJobDone, Key: "job-1"},
	)
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the FIRST line's JSON syntax; the valid second line makes it
	// interior (a torn tail would be forgiven, this must not be).
	data[0] = '#'
	if err := os.WriteFile(jpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Options{Journal: jpath, Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("interior corruption not reported")
	}
	found := false
	for _, p := range rep.Problems {
		if strings.Contains(p, "interior corruption") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no interior-corruption problem in %v", rep.Problems)
	}
}

// Corrupt cache entries and temp litter are detected and repaired via
// quarantine/removal.
func TestFsckCacheRepair(t *testing.T) {
	cacheDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(cacheDir, "bad.json"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cacheDir, "put-1.tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Run(Options{CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheCorrupt != 1 || rep.CacheTemps != 1 {
		t.Fatalf("verify miscounted: %s", rep.Summary())
	}

	rep, err = Run(Options{CacheDir: cacheDir, Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Repairs) != 2 {
		t.Fatalf("expected 2 repairs, got %v", rep.Repairs)
	}
	if _, err := os.Stat(filepath.Join(cacheDir, "bad.json"+exp.QuarantineSuffix)); err != nil {
		t.Fatalf("corrupt entry not quarantined: %v", err)
	}
	if _, err := os.Stat(filepath.Join(cacheDir, "put-1.tmp")); !os.IsNotExist(err) {
		t.Fatal("temp litter survived repair")
	}

	// Quarantined leftovers are a warning, not a problem: rerun is clean.
	rep, err = Run(Options{CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("cache still dirty after repair: %v", rep.Problems)
	}
	if len(rep.Warnings) == 0 {
		t.Fatal("quarantined leftover not warned about")
	}
}
