package sim

import (
	"fmt"
	"maps"
	"slices"
)

// Paranoid mode: when Config.Paranoid is set, the kernel cross-checks
// system invariants at every profiling quantum and Run fails loudly on the
// first violation. The checks are conservation laws that tie independent
// subsystems together, so a bookkeeping bug in any one of them surfaces as
// an inconsistency here rather than as silently wrong results.
//
// Checked invariants:
//
//  1. Partition disjointness — under DBP/Equal/Fixed, no two heavy threads'
//     masks overlap is a policy property already unit-tested; here we check
//     the weaker system-level fact that every thread's mask is non-empty.
//  2. Frame ownership — no physical frame is mapped by two page tables.
//  3. Service conservation — lifetime reads served by controllers never
//     exceed requests accepted.
//  4. Outstanding-read counts — the profiler's per-thread bank and page
//     counts, kept from the controllers' arrival/departure reports, equal a
//     fresh walk over the controllers' queues.
//  5. Core wakes — every core asleep on a recorded wake still reports a
//     NextEvent at or after that wake (a missed wake-up would otherwise
//     freeze the core silently), and the address its next Tick would
//     translate, if any, is on a mapped page: a core whose next Tick would
//     first-touch-allocate is active, not asleep.
type invariantChecker struct {
	sys *System
}

func newInvariantChecker(s *System) *invariantChecker {
	return &invariantChecker{sys: s}
}

// check runs every invariant; the returned error names the first violation.
func (ic *invariantChecker) check() error {
	if err := ic.checkMasks(); err != nil {
		return err
	}
	if err := ic.checkFrameOwnership(); err != nil {
		return err
	}
	if err := ic.checkService(); err != nil {
		return err
	}
	if err := ic.checkOutstanding(); err != nil {
		return err
	}
	return ic.checkWakes()
}

func (ic *invariantChecker) checkMasks() error {
	for t, pt := range ic.sys.tables {
		if pt.Mask().Empty() {
			return fmt.Errorf("sim: invariant violation: thread %d has an empty color mask", t)
		}
	}
	return nil
}

// checkFrameOwnership verifies that thread page tables never share frames,
// via each table's color histogram versus the allocator's global usage:
// the per-thread page counts must sum to the allocator's live frames.
func (ic *invariantChecker) checkFrameOwnership() error {
	perColor := make([]uint64, ic.sys.cfg.Geometry.NumColors())
	var totalPages uint64
	for _, pt := range ic.sys.tables {
		for c, n := range pt.ColorHistogram() {
			perColor[c] += uint64(n)
		}
		totalPages += uint64(pt.NumPages())
	}
	var live uint64
	for c, used := range ic.sys.alloc.Stats() {
		live += used
		if perColor[c] != used {
			return fmt.Errorf("sim: invariant violation: color %d has %d mapped pages but %d live frames (double allocation or leak)",
				c, perColor[c], used)
		}
	}
	if totalPages != live {
		return fmt.Errorf("sim: invariant violation: %d mapped pages vs %d live frames", totalPages, live)
	}
	return nil
}

func (ic *invariantChecker) checkService() error {
	for t := 0; t < ic.sys.cfg.Cores; t++ {
		l := ic.sys.life[t]
		if l.ReadsServed+l.WritesServed > l.Requests {
			return fmt.Errorf("sim: invariant violation: thread %d served %d requests but only %d arrived",
				t, l.ReadsServed+l.WritesServed, l.Requests)
		}
	}
	return nil
}

// checkOutstanding recounts every thread's outstanding reads per bank and
// per page from the controllers' queues and compares them with the
// profiler's incremental counts.
func (ic *invariantChecker) checkOutstanding() error {
	s := ic.sys
	perBank := make([][]int, s.cfg.Cores)
	perPage := make([]map[uint64]int, s.cfg.Cores)
	for t := range perBank {
		perBank[t] = make([]int, s.cfg.Geometry.NumColors())
		perPage[t] = map[uint64]int{}
	}
	for _, ctrl := range s.ctrls {
		ctrl.ForEachOutstandingRead(func(thread, bank int, page uint64) {
			perBank[thread][bank]++
			perPage[thread][page]++
		})
	}
	for t := range perBank {
		busy, banks, pages := s.prof.Outstanding(t)
		wantBusy := 0
		for _, n := range perBank[t] {
			if n > 0 {
				wantBusy++
			}
		}
		if busy != wantBusy || !slices.Equal(banks, perBank[t]) || !maps.Equal(pages, perPage[t]) {
			return fmt.Errorf("sim: invariant violation: profiler counts thread %d's outstanding reads as %d busy banks %v, pages %v; the queues hold %d busy banks %v, pages %v",
				t, busy, banks, pages, wantBusy, perBank[t], perPage[t])
		}
	}
	return nil
}

func (ic *invariantChecker) checkWakes() error {
	s := ic.sys
	for i, wake := range s.coreWake {
		if wake <= s.cycle {
			continue
		}
		if e, _ := s.cores[i].NextEvent(); e < wake {
			return fmt.Errorf("sim: invariant violation: core %d sleeps until cycle %d but its next event is cycle %d (now %d)",
				i, wake, e, s.cycle)
		}
		if va, ok := s.cores[i].PendingTranslate(); ok && !s.tables[i].Mapped(va) {
			return fmt.Errorf("sim: invariant violation: core %d sleeps until cycle %d before first-touching the page of %#x (now %d)",
				i, wake, va, s.cycle)
		}
	}
	return nil
}
