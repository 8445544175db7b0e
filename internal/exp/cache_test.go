package exp

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestCacheRoundTrip(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := tinyJob()
	if _, ok := c.Get(j); ok {
		t.Fatal("empty cache reported a hit")
	}
	want := runJob(j).Result
	if err := c.Put(j, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(j)
	if !ok {
		t.Fatal("stored entry missed")
	}
	// The JSON round trip must be lossless — warm-cache report output is
	// required to be byte-identical to a cold run.
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cached result differs from computed result:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestCacheVersionInvalidates(t *testing.T) {
	dir := t.TempDir()
	c1 := &Cache{dir: dir, version: "version-a"}
	j := tinyJob()
	if err := c1.Put(j, runJob(j).Result); err != nil {
		t.Fatal(err)
	}
	c2 := &Cache{dir: dir, version: "version-b"}
	if _, ok := c2.Get(j); ok {
		t.Fatal("entry from another module version served")
	}
	if _, ok := c1.Get(j); !ok {
		t.Fatal("same-version entry lost")
	}
}

func TestCacheCorruptEntryIsMiss(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := tinyJob()
	if err := c.Put(j, runJob(j).Result); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(j), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(j); ok {
		t.Fatal("corrupt entry served as a hit")
	}
}

func TestCacheHealQuarantinesTornFiles(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := tinyJob()
	want := runJob(j).Result
	if err := c.Put(j, want); err != nil {
		t.Fatal(err)
	}
	// Litter a kill -9 could leave: a stale temp from a dead writer and a
	// torn (truncated) entry.
	tmp := filepath.Join(dir, "put-12345.tmp")
	torn := filepath.Join(dir, "deadbeefdeadbeef.json")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, []byte(`{"check":123,"payload":{"Key":"tr`), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := NewCache(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived the healing scan")
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatal("torn entry still published under its original name")
	}
	if _, err := os.Stat(torn + ".quarantined"); err != nil {
		t.Fatalf("torn entry not quarantined: %v", err)
	}
	// The valid entry survives healing untouched.
	got, ok := c.Get(j)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatal("healing disturbed a valid entry")
	}
}

func TestCacheMissOnChangedInput(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := tinyJob()
	if err := cache.Put(j, runJob(j).Result); err != nil {
		t.Fatal(err)
	}
	j.Seed = 99
	if _, ok := cache.Get(j); ok {
		t.Fatal("changed seed must miss")
	}
}
