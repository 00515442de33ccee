package profile

import "fmt"

// State is the profiler's cross-quantum mutable state. Snapshots are taken
// only at scheduler-quantum boundaries, immediately after Quantum() ran, so
// the intra-quantum accumulators (BLP/MLP sums, per-cycle marks) are zero by
// construction and are not serialised; Restore re-zeroes them.
type State struct {
	LastRetired []uint64
	LastMisses  []uint64
}

// Snapshot captures the profiler's cross-quantum state.
func (p *Profiler) Snapshot() State {
	return State{
		LastRetired: append([]uint64(nil), p.lastRetired...),
		LastMisses:  append([]uint64(nil), p.lastMisses...),
	}
}

// Restore installs a previously captured state and zeroes the intra-quantum
// accumulators, dropping the cached marking pass with them.
func (p *Profiler) Restore(st State) error {
	if len(st.LastRetired) != p.numThreads || len(st.LastMisses) != p.numThreads {
		return fmt.Errorf("profile: snapshot has %d threads, profiler has %d", len(st.LastRetired), p.numThreads)
	}
	copy(p.lastRetired, st.LastRetired)
	copy(p.lastMisses, st.LastMisses)
	for i := range p.mark {
		p.mark[i] = 0
	}
	p.version = 0
	p.marked = false
	for t := 0; t < p.numThreads; t++ {
		p.count[t] = 0
		p.blpSum[t] = 0
		p.blpTime[t] = 0
		p.mlpSum[t] = 0
		p.pages[t] = p.pages[t][:0]
	}
	return nil
}
