package profile

import "fmt"

// State is the profiler's cross-quantum mutable state. Snapshots are taken
// only at scheduler-quantum boundaries, immediately after Quantum() ran, so
// the intra-quantum accumulators (BLP/MLP sums) are zero by construction
// and are not serialised; Restore re-zeroes them. The outstanding-read
// counts are derived from the controllers and rebuilt by Restore.
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

// Restore installs a previously captured state, zeroes the intra-quantum
// accumulators and rebuilds the outstanding-read counts from the
// controllers, which must already be restored.
func (p *Profiler) Restore(st State) error {
	if len(st.LastRetired) != p.numThreads || len(st.LastMisses) != p.numThreads {
		return fmt.Errorf("profile: snapshot has %d threads, profiler has %d", len(st.LastRetired), p.numThreads)
	}
	copy(p.lastRetired, st.LastRetired)
	copy(p.lastMisses, st.LastMisses)
	p.rebuild()
	clear(p.blpSum)
	clear(p.blpTime)
	clear(p.mlpSum)
	return nil
}
