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

// Profiler accumulates BLP samples and produces quantum summaries. The
// controllers report every read's arrival and departure, so a sample costs
// O(threads); Restore rebuilds the counts with one ForEachOutstandingRead
// walk.
type Profiler struct {
	numThreads int
	numBanks   int
	cores      []CoreSource
	ctrls      []ControllerSource

	// Outstanding reads: bankReads[thread*numBanks+bank] counts them per
	// bank, banks[thread] is how many of the thread's banks are non-zero
	// (its BLP sample), and pages[thread] lists its distinct pages with
	// their read counts (its MLP sample is the length).
	bankReads []int
	banks     []int
	pages     [][]pageCount
	// walks counts rebuilds from the controllers' queues.
	walks uint64

	blpSum  []uint64
	blpTime []uint64 // cycles the thread had ≥1 outstanding request
	mlpSum  []uint64

	// Last-seen core counters for delta computation.
	lastRetired []uint64
	lastMisses  []uint64

	// scratch backs the slice returned by Quantum; each call overwrites the
	// previous one's contents.
	scratch []ThreadSample
}

// pageCount is one distinct outstanding page and its read count.
type pageCount struct {
	key uint64
	n   int
}

// New builds a profiler over the given cores and controllers. cores[i] must
// correspond to thread i. The controllers must have no outstanding reads
// yet, and must report every read arrival and departure to the profiler
// (see ReadArrived).
func New(cores []CoreSource, ctrls []ControllerSource, numBanks int) *Profiler {
	n := len(cores)
	return &Profiler{
		numThreads:  n,
		numBanks:    numBanks,
		cores:       cores,
		ctrls:       ctrls,
		bankReads:   make([]int, n*numBanks),
		banks:       make([]int, n),
		pages:       make([][]pageCount, n),
		blpSum:      make([]uint64, n),
		blpTime:     make([]uint64, n),
		mlpSum:      make([]uint64, n),
		lastRetired: make([]uint64, n),
		lastMisses:  make([]uint64, n),
		scratch:     make([]ThreadSample, n),
	}
}

// ReadArrived records a read joining a controller's outstanding set.
func (p *Profiler) ReadArrived(thread, bank int, pageKey uint64) {
	p.count(thread, bank, pageKey, 1)
}

// ReadDeparted records a read leaving a controller's outstanding set.
func (p *Profiler) ReadDeparted(thread, bank int, pageKey uint64) {
	p.count(thread, bank, pageKey, -1)
}

// count adds delta (±1) reads to the thread's bank and page counts. Reads
// from out-of-range threads or banks are not counted at all.
func (p *Profiler) count(thread, bank int, pageKey uint64, delta int) {
	if thread < 0 || thread >= p.numThreads || bank < 0 || bank >= p.numBanks {
		return
	}
	idx := thread*p.numBanks + bank
	before := p.bankReads[idx]
	p.bankReads[idx] += delta
	if before == 0 {
		p.banks[thread]++
	} else if p.bankReads[idx] == 0 {
		p.banks[thread]--
	}
	// Linear search: outstanding pages per thread are MSHR-bounded.
	pl := p.pages[thread]
	for i := range pl {
		if pl[i].key == pageKey {
			if pl[i].n += delta; pl[i].n == 0 {
				last := len(pl) - 1
				pl[i] = pl[last]
				p.pages[thread] = pl[:last]
			}
			return
		}
	}
	p.pages[thread] = append(pl, pageCount{key: pageKey, n: delta})
}

// rebuild recounts the outstanding reads from zero with one walk over every
// controller's queues.
func (p *Profiler) rebuild() {
	clear(p.bankReads)
	clear(p.banks)
	for t := range p.pages {
		p.pages[t] = p.pages[t][:0]
	}
	for _, c := range p.ctrls {
		c.ForEachOutstandingRead(func(thread, bank int, pageKey uint64) {
			p.count(thread, bank, pageKey, 1)
		})
	}
	p.walks++
}

// Walks returns how many times the profiler has walked the controllers'
// queues to rebuild its counts: once per Restore. Diagnostic only; not
// simulated state.
func (p *Profiler) Walks() uint64 { return p.walks }

// SampleBLP takes one BLP sample; call once per memory cycle.
func (p *Profiler) SampleBLP() { p.SkipSample(1) }

// SkipSample accounts for m consecutive cycles during which the outstanding
// request set is known to be frozen (event-driven cycle skipping), leaving
// the accumulators exactly as m SampleBLP calls would have.
func (p *Profiler) SkipSample(m uint64) {
	if m == 0 {
		return
	}
	for t, n := range p.banks {
		if n > 0 {
			p.blpSum[t] += m * uint64(n)
			p.mlpSum[t] += m * uint64(len(p.pages[t]))
			p.blpTime[t] += m
		}
	}
}

// Outstanding returns thread t's counted outstanding reads: how many banks
// hold any (its BLP sample), the count per global bank, and the count per
// page key. Paranoid mode compares this with the controllers' queues;
// perBank aliases internal state and must not be modified.
func (p *Profiler) Outstanding(t int) (busyBanks int, perBank []int, perPage map[uint64]int) {
	perPage = make(map[uint64]int, len(p.pages[t]))
	for _, pc := range p.pages[t] {
		perPage[pc.key] = pc.n
	}
	return p.banks[t], p.bankReads[t*p.numBanks : (t+1)*p.numBanks], perPage
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
