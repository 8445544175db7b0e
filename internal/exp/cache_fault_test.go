package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/iofault"
	"repro/internal/sim"
)

// failRenameFS wraps an FS and fails every Rename whose target matches
// block, exercising the heal scan's quarantine-failure accounting.
type failRenameFS struct {
	iofault.FS
	block string // substring of the rename target to fail
}

func (f failRenameFS) Rename(oldpath, newpath string) error {
	if f.block != "" && strings.Contains(newpath, f.block) {
		return &os.PathError{Op: "rename", Path: newpath, Err: os.ErrPermission}
	}
	return f.FS.Rename(oldpath, newpath)
}

// failRemoveFS additionally fails Remove, so neither quarantine path works.
type failRemoveFS struct {
	failRenameFS
}

func (f failRemoveFS) Remove(name string) error {
	return &os.PathError{Op: "remove", Path: name, Err: os.ErrPermission}
}

// A corrupt entry whose quarantine rename fails must be counted and logged,
// not silently ignored, and the fallback removal must reclaim it.
func TestCacheHealQuarantineFailureCounted(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.json"), []byte("not a valid entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logged []string
	c := &Cache{dir: dir, version: "v", fs: failRenameFS{FS: iofault.Real, block: QuarantineSuffix},
		Logf: func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }}
	rep := c.Heal()
	if rep.QuarantineFailures != 1 {
		t.Fatalf("QuarantineFailures = %d, want 1 (%+v)", rep.QuarantineFailures, rep)
	}
	if len(logged) == 0 {
		t.Fatal("quarantine failure not logged")
	}
	// The fallback Remove succeeded, so the corrupt entry is gone.
	if _, err := os.Stat(filepath.Join(dir, "deadbeef.json")); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry not reclaimed by fallback removal: %v", err)
	}
	if rep.RemoveFailures != 0 {
		t.Fatalf("RemoveFailures = %d, want 0", rep.RemoveFailures)
	}
}

// When neither quarantine nor removal works, both failures are counted so
// the wedged directory is observable.
func TestCacheHealRemoveFailureCounted(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.json"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := &Cache{dir: dir, version: "v",
		fs:   failRemoveFS{failRenameFS{FS: iofault.Real, block: QuarantineSuffix}},
		Logf: func(string, ...any) {}}
	rep := c.Heal()
	if rep.QuarantineFailures != 1 || rep.RemoveFailures != 1 {
		t.Fatalf("got %+v, want 1 quarantine failure and 1 remove failure", rep)
	}
}

// Put must propagate a failed directory sync: without it the rename that
// published the entry may not survive a power cut.
func TestCachePutPropagatesDirSyncFailure(t *testing.T) {
	inj := iofault.NewInjector(iofault.Plan{Seed: 21})
	c, err := NewCacheFS(inj, filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	job := tinyJob()
	inj.SetSyncFailures(1)
	if err := c.Put(job, sim.Result{ExecCycles: 1}); err == nil {
		t.Fatal("Put with failed directory sync reported success")
	}
}

// Crash-consistency of the cache: record two Puts through the recorder,
// enumerate every crash state, and require that after the heal scan (a) any
// acknowledged Put still serves a hit, (b) no temp litter and no invalid
// unquarantined .json survives.
func TestCacheCrashConsistency(t *testing.T) {
	root := t.TempDir()
	rec := iofault.NewRecorder(root)
	dir := filepath.Join(root, "cache")
	c, err := NewCacheFS(rec, dir)
	if err != nil {
		t.Fatal(err)
	}
	jobA, jobB := tinyJob(), tinyJob()
	jobB.Seed = jobA.Seed + 99
	version := c.version
	if err := c.Put(jobA, sim.Result{ExecCycles: 11}); err != nil {
		t.Fatal(err)
	}
	rec.Note("put:a")
	if err := c.Put(jobB, sim.Result{ExecCycles: 22}); err != nil {
		t.Fatal(err)
	}
	rec.Note("put:b")

	err = iofault.ForEachCrashState(rec.Trace(), t.TempDir(), func(s iofault.CrashState, stateDir string) error {
		cdir := filepath.Join(stateDir, "cache")
		c2, err := NewCache(cdir)
		if err != nil {
			return fmt.Errorf("reopen cache: %v", err)
		}
		c2.version = version // same binary as the writer
		for _, note := range s.Acked {
			var job Job
			var want int
			switch note {
			case "put:a":
				job, want = jobA, 11
			case "put:b":
				job, want = jobB, 22
			default:
				continue
			}
			r, ok := c2.Get(job)
			if !ok {
				return fmt.Errorf("acked %s lost after heal", note)
			}
			if int(r.ExecCycles) != want {
				return fmt.Errorf("acked %s returned wrong result: %+v", note, r)
			}
		}
		// After heal: no temp litter, no invalid unquarantined entries.
		entries, err := os.ReadDir(cdir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			name := e.Name()
			if strings.HasSuffix(name, ".tmp") {
				return fmt.Errorf("temp file %s survived heal", name)
			}
			if strings.HasSuffix(name, ".json") {
				data, err := os.ReadFile(filepath.Join(cdir, name))
				if err != nil {
					return err
				}
				if _, ok := DecodeCacheEntry(data); !ok {
					return fmt.Errorf("invalid entry %s survived heal unquarantined", name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
