// tlsfsck verifies — and optionally repairs — the durable state of a
// campaign offline: the JSONL journal (WAL) and the result cache. Run it
// after a crash, power loss, or suspected disk trouble, before resuming the
// campaign.
//
// Usage:
//
//	tlsfsck -state .tlsstate                     # journal+cache under one dir
//	tlsfsck -journal camp.jsonl -cache .tlscache # explicit paths
//	tlsfsck -state .tlsstate -repair             # fix what online recovery would fix
//	tlsfsck -state .tlsstate -json               # machine-readable report
//
// Exit status: 0 when the state verifies clean, 1 when problems were found
// (with -repair: found and fixed — rerun to confirm a clean bill), 2 on
// usage or I/O errors. This mirrors fsck(8): 1 means "errors corrected".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fsck"
)

func main() {
	var (
		state   = flag.String("state", "", "campaign state directory: checks <dir>/journal.jsonl and <dir>/cache when present")
		journal = flag.String("journal", "", "campaign journal (WAL) to verify")
		cache   = flag.String("cache", "", "result-cache directory to verify")
		repair  = flag.Bool("repair", false, "apply repairs: truncate torn journal tail, quarantine corrupt files, remove temp litter")
		jsonOut = flag.Bool("json", false, "emit the report as JSON on stdout")
		quiet   = flag.Bool("q", false, "suppress per-finding log lines")
	)
	flag.Parse()

	opts := fsck.Options{
		Journal:  *journal,
		CacheDir: *cache,
		Repair:   *repair,
	}
	if *state != "" {
		// Convention used by the drills: one directory holding both.
		if opts.Journal == "" {
			if p := filepath.Join(*state, "journal.jsonl"); exists(p) {
				opts.Journal = p
			}
		}
		if opts.CacheDir == "" {
			if p := filepath.Join(*state, "cache"); exists(p) {
				opts.CacheDir = p
			}
		}
	}
	if opts.Journal == "" && opts.CacheDir == "" {
		fmt.Fprintln(os.Stderr, "tlsfsck: nothing to check (give -state, -journal or -cache)")
		flag.Usage()
		os.Exit(2)
	}
	if !*quiet {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	rep, err := fsck.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlsfsck: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "tlsfsck: %v\n", err)
			os.Exit(2)
		}
	} else {
		fmt.Println(rep.Summary())
	}
	if !rep.Clean() {
		os.Exit(1)
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
