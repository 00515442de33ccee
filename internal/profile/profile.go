// Package profile computes the per-quantum, per-thread memory
// characteristics — MPKI, bank-level parallelism (BLP) and row-buffer
// locality (RBL) — that Dynamic Bank Partitioning, TCM and MCP all key
// their decisions on.
//
// BLP is sampled every memory cycle as the number of distinct banks holding
// at least one outstanding request from the thread, averaged over the
// cycles in which the thread had any outstanding request (the definition
// used by the TCM and DBP papers).
package profile

// ThreadSample is one thread's profile over the last quantum.
type ThreadSample struct {
	// Thread is the hardware thread index.
	Thread int
	// Instructions retired during the quantum.
	Instructions uint64
	// Misses is the number of demand misses that reached DRAM.
	Misses uint64
	// Requests is the number of requests (reads + writes) accepted by the
	// controllers.
	Requests uint64
	// ReadsServed and WritesServed count completed DRAM accesses.
	ReadsServed  uint64
	WritesServed uint64
	// RowHits counts served requests that hit an open row.
	RowHits uint64
	// MPKI is misses per kilo-instruction.
	MPKI float64
	// BLP is the average number of banks busy with the thread's requests
	// (achieved bank-level parallelism — bounded by the banks the thread
	// currently owns).
	BLP float64
	// MLP is the average number of *distinct pages* the thread has in
	// flight: its potential bank-level parallelism if banks were plentiful.
	// DBP estimates bank demand from this, avoiding the feedback trap where
	// a squeezed partition suppresses measured BLP.
	MLP float64
	// RBL is the thread's row-buffer hit rate.
	RBL float64
	// AvgQueueCycles is the mean read queueing delay in memory cycles.
	AvgQueueCycles float64
}

// CoreSource exposes the per-core counters the profiler needs.
type CoreSource interface {
	// Retired returns total retired instructions.
	Retired() uint64
	// DemandMisses returns total demand misses sent to DRAM.
	DemandMisses() uint64
}

// ControllerSource exposes the per-controller counters the profiler needs.
type ControllerSource interface {
	// ForEachOutstandingRead visits every queued or in-flight read;
	// pageKey identifies the request's physical page.
	ForEachOutstandingRead(fn func(thread, globalBank int, pageKey uint64))
	// PerThreadCounters returns (arrivals, readsServed, writesServed,
	// rowHits, queueCycles) for the given thread since the last reset.
	PerThreadCounters(thread int) (arrivals, reads, writes, rowHits, queueCycles uint64)
	// ResetPerThreadCounters zeroes the per-thread counters.
	ResetPerThreadCounters()
}

// OutstandingVersioner is an optional ControllerSource extension:
// OutstandingGeneration changes whenever the set ForEachOutstandingRead
// visits may have changed. While no controller's generation moves, the
// profiler reuses its last marking pass instead of walking the queues.
type OutstandingVersioner interface {
	OutstandingGeneration() uint64
}

// Profiler accumulates BLP samples and produces quantum summaries.
type Profiler struct {
	numThreads int
	numBanks   int
	cores      []CoreSource
	ctrls      []ControllerSource

	// BLP sampling state.
	mark    []uint32 // numThreads × numBanks stamps
	version uint32
	count   []int // distinct banks per thread in the current sample
	blpSum  []uint64
	blpTime []uint64 // cycles the thread had ≥1 outstanding request

	// MLP sampling state: distinct outstanding pages per thread.
	pages  [][]uint64 // per-thread scratch of page keys this sample
	mlpSum []uint64

	// versions[i] is ctrls[i]'s OutstandingVersioner (nil if it has none)
	// and gens[i] the generation count and pages were marked at; marked
	// says count and pages hold a pass still valid for those generations.
	versions []OutstandingVersioner
	gens     []uint64
	marked   bool

	// Last-seen core counters for delta computation.
	lastRetired []uint64
	lastMisses  []uint64

	// visit is the ForEachOutstandingRead callback, bound once at
	// construction so the per-cycle sampling pass allocates nothing.
	visit func(thread, bank int, pageKey uint64)
	// scratch backs the slice returned by Quantum; each call overwrites the
	// previous one's contents.
	scratch []ThreadSample
}

// New builds a profiler over the given cores and controllers. cores[i] must
// correspond to thread i.
func New(cores []CoreSource, ctrls []ControllerSource, numBanks int) *Profiler {
	n := len(cores)
	p := &Profiler{
		numThreads:  n,
		numBanks:    numBanks,
		cores:       cores,
		ctrls:       ctrls,
		mark:        make([]uint32, n*numBanks),
		count:       make([]int, n),
		blpSum:      make([]uint64, n),
		blpTime:     make([]uint64, n),
		pages:       make([][]uint64, n),
		mlpSum:      make([]uint64, n),
		lastRetired: make([]uint64, n),
		lastMisses:  make([]uint64, n),
		scratch:     make([]ThreadSample, n),
		versions:    make([]OutstandingVersioner, len(ctrls)),
		gens:        make([]uint64, len(ctrls)),
	}
	for i, c := range ctrls {
		p.versions[i], _ = c.(OutstandingVersioner)
	}
	p.visit = func(thread, bank int, pageKey uint64) {
		if thread < 0 || thread >= p.numThreads || bank < 0 || bank >= p.numBanks {
			return
		}
		idx := thread*p.numBanks + bank
		if p.mark[idx] != p.version {
			p.mark[idx] = p.version
			p.count[thread]++
		}
		// Linear dedupe: outstanding reads per thread are MSHR-bounded.
		known := false
		for _, k := range p.pages[thread] {
			if k == pageKey {
				known = true
				break
			}
		}
		if !known {
			p.pages[thread] = append(p.pages[thread], pageKey)
		}
	}
	return p
}

// outstandingChanged reports whether any controller's outstanding reads may
// have changed since the last marking pass, recording the generations it
// saw.
func (p *Profiler) outstandingChanged() bool {
	changed := !p.marked
	for i, v := range p.versions {
		if v == nil {
			changed = true
		} else if g := v.OutstandingGeneration(); g != p.gens[i] {
			p.gens[i] = g
			changed = true
		}
	}
	return changed
}

// markOutstanding visits every outstanding read, stamping distinct (thread,
// bank) pairs and collecting distinct pages per thread into the reused
// scratch. It keeps the previous pass while no controller's outstanding
// reads have changed.
func (p *Profiler) markOutstanding() {
	if !p.outstandingChanged() {
		return
	}
	p.marked = true
	p.version++
	if p.version == 0 { // wrapped: invalidate stamps
		for i := range p.mark {
			p.mark[i] = 0
		}
		p.version = 1
	}
	for i := range p.count {
		p.count[i] = 0
		p.pages[i] = p.pages[i][:0]
	}
	for _, c := range p.ctrls {
		c.ForEachOutstandingRead(p.visit)
	}
}

// SampleBLP takes one BLP sample; call once per memory cycle.
func (p *Profiler) SampleBLP() {
	p.markOutstanding()
	for t, n := range p.count {
		if n > 0 {
			p.blpSum[t] += uint64(n)
			p.mlpSum[t] += uint64(len(p.pages[t]))
			p.blpTime[t]++
		}
	}
}

// SkipSample accounts for m consecutive cycles during which the outstanding
// request set is known to be frozen (event-driven cycle skipping): one
// marking pass stands in for m identical per-cycle samples, leaving the
// accumulators exactly as m SampleBLP calls would have.
func (p *Profiler) SkipSample(m uint64) {
	if m == 0 {
		return
	}
	p.markOutstanding()
	for t, n := range p.count {
		if n > 0 {
			p.blpSum[t] += m * uint64(n)
			p.mlpSum[t] += m * uint64(len(p.pages[t]))
			p.blpTime[t] += m
		}
	}
}

// Quantum produces per-thread samples for the elapsed quantum and resets
// the quantum accumulators (including the controllers' per-thread
// counters). The returned slice is backed by an internal scratch buffer and
// is only valid until the next Quantum call; callers that retain samples
// across quanta must copy them.
func (p *Profiler) Quantum() []ThreadSample {
	out := p.scratch
	for i := range out {
		out[i] = ThreadSample{}
	}
	for t := 0; t < p.numThreads; t++ {
		s := &out[t]
		s.Thread = t
		retired := p.cores[t].Retired()
		misses := p.cores[t].DemandMisses()
		s.Instructions = retired - p.lastRetired[t]
		s.Misses = misses - p.lastMisses[t]
		p.lastRetired[t] = retired
		p.lastMisses[t] = misses

		for _, c := range p.ctrls {
			arr, rd, wr, hits, qc := c.PerThreadCounters(t)
			s.Requests += arr
			s.ReadsServed += rd
			s.WritesServed += wr
			s.RowHits += hits
			s.AvgQueueCycles += float64(qc)
		}
		served := s.ReadsServed + s.WritesServed
		if served > 0 {
			s.RBL = float64(s.RowHits) / float64(served)
		}
		if s.ReadsServed > 0 {
			s.AvgQueueCycles /= float64(s.ReadsServed)
		} else {
			s.AvgQueueCycles = 0
		}
		if s.Instructions > 0 {
			s.MPKI = 1000 * float64(s.Misses) / float64(s.Instructions)
		}
		if p.blpTime[t] > 0 {
			s.BLP = float64(p.blpSum[t]) / float64(p.blpTime[t])
			s.MLP = float64(p.mlpSum[t]) / float64(p.blpTime[t])
		}
		p.blpSum[t] = 0
		p.mlpSum[t] = 0
		p.blpTime[t] = 0
	}
	for _, c := range p.ctrls {
		c.ResetPerThreadCounters()
	}
	return out
}
