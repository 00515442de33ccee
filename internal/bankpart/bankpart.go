// Package bankpart defines the bank-partitioning policy interface and the
// static policies the paper compares against: no partitioning (full
// interleaving) and equal bank partitioning. Dynamic Bank Partitioning
// (internal/core) and Memory Channel Partitioning (internal/mcp) implement
// the same interface.
//
// The static policies here differ only in their masks, so they are one
// type, Static, with no mutable state after construction: its snapshot
// state is empty.
package bankpart

import (
	"fmt"

	"dbpsim/internal/addr"
	"dbpsim/internal/paging"
	"dbpsim/internal/profile"
)

// Policy computes per-thread page-color masks.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Initial returns the masks installed before execution starts,
	// one per thread.
	Initial() []paging.ColorSet
	// Quantum consumes the last quantum's thread profiles and returns new
	// masks; changed=false means "keep the current masks".
	Quantum(samples []profile.ThreadSample) (masks []paging.ColorSet, changed bool)
	// Snapshot encodes the policy's own mutable state for a checkpoint; a
	// static policy returns none.
	Snapshot() ([]byte, error)
	// Restore installs Snapshot's bytes into an identically configured
	// policy.
	Restore([]byte) error
}

// SpreadOrder returns all colors ordered so that consecutive entries
// alternate channels (and ranks) before reusing a channel: slicing a
// contiguous run of this order gives a thread banks spread across channels,
// preserving its channel-level parallelism.
func SpreadOrder(g addr.Geometry) []int {
	out := make([]int, 0, g.NumColors())
	for b := 0; b < g.BanksPerRank; b++ {
		for r := 0; r < g.RanksPerChannel; r++ {
			for ch := 0; ch < g.Channels; ch++ {
				out = append(out, g.BankID(ch, r, b))
			}
		}
	}
	return out
}

// Static installs per-thread masks once and never changes them.
type Static struct {
	name  string
	masks []paging.ColorSet
}

// NewNone gives every thread every bank: the conventional fully
// interleaved baseline, where all interference happens at the scheduler.
func NewNone(numThreads int, g addr.Geometry) *Static {
	full := paging.FullColorSet(g.NumColors())
	masks := make([]paging.ColorSet, numThreads)
	for i := range masks {
		masks[i] = full
	}
	return &Static{name: "none", masks: masks}
}

// NewFixed installs caller-chosen per-thread color lists (used by
// motivation and sensitivity experiments that pin a thread to an explicit
// bank set).
func NewFixed(colorsPerThread [][]int, g addr.Geometry) (*Static, error) {
	if len(colorsPerThread) == 0 {
		return nil, fmt.Errorf("bankpart: NewFixed needs at least one thread")
	}
	n := g.NumColors()
	masks := make([]paging.ColorSet, len(colorsPerThread))
	for t, colors := range colorsPerThread {
		m := paging.NewColorSet(n)
		for _, c := range colors {
			if c < 0 || c >= n {
				return nil, fmt.Errorf("bankpart: thread %d color %d out of range [0,%d)", t, c, n)
			}
			m.Add(c)
		}
		if m.Empty() {
			return nil, fmt.Errorf("bankpart: thread %d has no colors", t)
		}
		masks[t] = m
	}
	return &Static{name: "fixed", masks: masks}, nil
}

// NewEqual statically splits the banks evenly among threads — the prior
// bank-partitioning scheme DBP improves on. Each thread's share is drawn
// from SpreadOrder so it still spans the channels. It returns an error
// when there are more threads than bank colors.
func NewEqual(numThreads int, g addr.Geometry) (*Static, error) {
	n := g.NumColors()
	if numThreads <= 0 {
		return nil, fmt.Errorf("bankpart: numThreads must be positive, got %d", numThreads)
	}
	if numThreads > n {
		return nil, fmt.Errorf("bankpart: %d threads exceed %d bank colors", numThreads, n)
	}
	spread := SpreadOrder(g)
	masks := make([]paging.ColorSet, numThreads)
	for i := range masks {
		masks[i] = paging.NewColorSet(n)
	}
	// Contiguous slices of the spread order: each thread's share alternates
	// channels, so equal partitioning costs banks but not channel
	// parallelism. Remainder colors go one each to the first threads.
	k, rem := n/numThreads, n%numThreads
	pos := 0
	for i := range masks {
		take := k
		if i < rem {
			take++
		}
		for j := 0; j < take; j++ {
			masks[i].Add(spread[pos])
			pos++
		}
	}
	return &Static{name: "equal", masks: masks}, nil
}

// Name implements Policy.
func (p *Static) Name() string { return p.name }

// Initial implements Policy.
func (p *Static) Initial() []paging.ColorSet {
	out := make([]paging.ColorSet, len(p.masks))
	for i, m := range p.masks {
		out[i] = m.Clone()
	}
	return out
}

// Quantum implements Policy: static, never changes.
func (*Static) Quantum([]profile.ThreadSample) ([]paging.ColorSet, bool) {
	return nil, false
}

// Snapshot implements Policy: there is no mutable state.
func (*Static) Snapshot() ([]byte, error) { return nil, nil }

// Restore implements Policy: only the empty state restores.
func (p *Static) Restore(b []byte) error {
	if len(b) > 0 {
		return fmt.Errorf("bankpart: static policy %s given %d bytes of state", p.name, len(b))
	}
	return nil
}
