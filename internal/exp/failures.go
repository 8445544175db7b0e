package exp

import (
	"fmt"
	"strings"
)

// Failure is one entry of a sweep's failure manifest: a job whose result
// could not be obtained, with enough context to reproduce or triage it.
type Failure struct {
	// Label is the job's human-readable description.
	Label string
	// Key is the job's content hash (the cache and journal key).
	Key string
	// Err is the final error text.
	Err string
	// TimedOut marks a watchdog-cancelled job.
	TimedOut bool
	// Attempts is how many times the job executed before giving up.
	Attempts int
}

// Kind names the failure class for rendering.
func (f Failure) Kind() string {
	if f.TimedOut {
		return "timeout"
	}
	return "error"
}

// CollectFailures extracts the failure manifest from a batch's results, in
// submission order.
func CollectFailures(results []JobResult) []Failure {
	var out []Failure
	for _, jr := range results {
		if jr.Err == nil {
			continue
		}
		out = append(out, Failure{
			Label:    jr.Job.Label(),
			Key:      jr.Job.Key(),
			Err:      jr.Err.Error(),
			TimedOut: jr.TimedOut,
			Attempts: jr.Attempts,
		})
	}
	return out
}

// RenderFailureManifest renders the manifest as a text block for the
// experiment outputs ("" when the sweep was clean). Errors are truncated to
// their first line: the full text (with stack traces) is in the job
// results, the manifest is for orientation.
func RenderFailureManifest(failures []Failure) string {
	if len(failures) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "FAILURE MANIFEST: %d job(s) without results\n", len(failures))
	for _, f := range failures {
		msg := f.Err
		if i := strings.IndexByte(msg, '\n'); i >= 0 {
			msg = msg[:i]
		}
		fmt.Fprintf(&b, "  [%s] %s (attempts %d, key %.12s): %s\n",
			f.Kind(), f.Label, f.Attempts, f.Key, msg)
	}
	return b.String()
}
