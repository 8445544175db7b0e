package obs

// Fleet-level aggregation helpers. A distributed campaign has one registry
// per observed run on each worker; a worker snapshots a finished run into a
// plain name→value map that rides the run's sealed outcome, and the
// coordinator merges the map of each job's settling run. Maps (not
// registries) cross these boundaries: a Registry's counters are
// deliberately unsynchronized for the zero-overhead hot path, so they are
// only read after the run that owns them has finished.

// CounterSnapshot copies every counter of the registry into a map. The
// registry must be quiescent (its simulation finished); returns nil for a
// nil registry.
func (r *Registry) CounterSnapshot() map[string]uint64 {
	if r == nil {
		return nil
	}
	names := r.CounterNames()
	if len(names) == 0 {
		return nil
	}
	m := make(map[string]uint64, len(names))
	for _, name := range names {
		m[name] = r.CounterValue(name)
	}
	return m
}

// MergeCounters adds every counter of src into dst (dst must be non-nil).
func MergeCounters(dst, src map[string]uint64) {
	for name, v := range src {
		dst[name] += v
	}
}
