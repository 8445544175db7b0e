package event

// Resource models a contended unit — a memory bank, a directory bank, the
// commit token path — with busy-until occupancy semantics: a request
// arriving at time t is serviced starting at max(t, busyUntil) and occupies
// the resource for its service time. This is the standard first-order
// queuing model for execution-driven simulators and is what "contention is
// accurately modeled in the whole system" reduces to at our level of
// abstraction.
type Resource struct {
	busyUntil Time
	requests  uint64
	waited    Time // cumulative queuing delay experienced by requests
}

// Acquire reserves the resource at or after now for service cycles. It
// returns the time at which service starts (>= now) and the time it
// completes.
func (r *Resource) Acquire(now Time, service Time) (start, done Time) {
	start = now
	if r.busyUntil > start {
		start = r.busyUntil
	}
	done = start + service
	r.waited += start - now
	r.busyUntil = done
	r.requests++
	return start, done
}

// BusyUntil returns the time at which the resource next becomes free.
func (r *Resource) BusyUntil() Time { return r.busyUntil }

// Requests returns the number of Acquire calls served.
func (r *Resource) Requests() uint64 { return r.requests }

// WaitCycles returns the cumulative queuing delay experienced by requests.
func (r *Resource) WaitCycles() Time { return r.waited }

// Bank array helpers: a set of interleaved resources addressed by an index
// (e.g. memory banks interleaved by line address).

// Banks is a fixed array of Resources indexed by a hash of the address.
type Banks struct {
	banks []Resource
}

// NewBanks returns n interleaved banks. n must be positive.
func NewBanks(n int) *Banks {
	if n <= 0 {
		panic("event: NewBanks with non-positive count")
	}
	return &Banks{banks: make([]Resource, n)}
}

// Bank returns the resource for key (interleaved by modulo).
func (b *Banks) Bank(key uint64) *Resource {
	return &b.banks[key%uint64(len(b.banks))]
}

// Acquire reserves the bank selected by key.
func (b *Banks) Acquire(key uint64, now, service Time) (start, done Time) {
	return b.Bank(key).Acquire(now, service)
}

// TotalWait returns the cumulative queuing delay across all banks.
func (b *Banks) TotalWait() Time {
	var w Time
	for i := range b.banks {
		w += b.banks[i].WaitCycles()
	}
	return w
}

// Requests returns the number of Acquire calls served across all banks.
func (b *Banks) Requests() uint64 {
	var n uint64
	for i := range b.banks {
		n += b.banks[i].Requests()
	}
	return n
}

// BusyAt returns how many banks are occupied at time now — an observability
// read (the in-flight-messages gauge); it does not change occupancy.
func (b *Banks) BusyAt(now Time) int {
	n := 0
	for i := range b.banks {
		if b.banks[i].busyUntil > now {
			n++
		}
	}
	return n
}
