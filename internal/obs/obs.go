// Package obs is the simulator's observability layer: request-lifecycle
// event hooks, per-epoch time series, a Chrome-trace exporter and a
// versioned machine-readable run ledger.
//
// The package is designed around one invariant: observability must never
// perturb simulated timing and must cost (almost) nothing when disabled.
// All hook methods are safe on a nil *Recorder and return immediately, so
// the memory controller and simulation kernel call them unconditionally
// guarded by a single pointer nil-check; no closure, interface conversion
// or allocation happens on the disabled path. When enabled, every buffer is
// preallocated at construction and hooks only write into fixed-size scratch
// or append to a capped slice, so the *simulated* cycle-by-cycle behaviour
// is bit-identical with and without a recorder attached (asserted by test).
package obs

import (
	"fmt"
	"io"
)

// Counter names recorded by the Recorder (exported so ledger consumers can
// reference them without string literals).
const (
	CounterEnqueues     = "obs.enqueues"      // requests accepted into controller queues
	CounterActivates    = "obs.activates"     // row activations observed
	CounterColumnReads  = "obs.column_reads"  // read column commands observed
	CounterColumnWrites = "obs.column_writes" // write column commands observed
	CounterCompletions  = "obs.completions"   // read data transfers completed
	CounterRepartitions = "obs.repartitions"  // partition-policy mask changes
	CounterEpochs       = "obs.epochs"        // epoch boundaries recorded
	CounterDropped      = "obs.dropped_spans" // request spans dropped at the event cap
	CounterShifts       = "obs.demand_shifts" // scenario demand shifts recorded
)

// DefaultMaxSpans caps the per-request span buffer (completed reads kept
// for the Chrome trace). At ~48 bytes per span this bounds recorder memory
// to a few tens of megabytes on the longest runs. Once full, further
// completions are counted in CounterDropped instead of stored.
const DefaultMaxSpans = 1 << 19

// Options configures a Recorder.
type Options struct {
	// NumThreads is the number of hardware threads observed.
	NumThreads int
	// NumBanks is the number of global banks (geometry colors).
	NumBanks int
	// Spans enables per-request span capture (needed only for the Chrome
	// trace export; epoch series work without it).
	Spans bool
}

// Span is one completed read request: the interval from controller arrival
// to data-transfer completion, in memory cycles.
type Span struct {
	// Thread is the requesting hardware thread.
	Thread int32
	// Channel is the DRAM channel that served the request.
	Channel int32
	// Arrival and End bound the request's life in memory cycles.
	Arrival uint64
	End     uint64
	// RowHit marks requests served from an already-open row.
	RowHit bool
}

// EpochThread is one thread's slice of an epoch sample. The simulation
// kernel fills the profile-derived fields; the recorder adds BanksTouched
// from its own hook-fed scratch.
type EpochThread struct {
	// Served is reads+writes completed during the epoch.
	Served uint64 `json:"served"`
	// RowHitRate is the fraction of served requests that hit an open row.
	RowHitRate float64 `json:"row_hit_rate"`
	// IPC is the thread's instructions per CPU cycle over the epoch.
	IPC float64 `json:"ipc"`
	// Banks is the number of bank colors the thread's partition holds.
	Banks int `json:"banks"`
	// BanksTouched is the number of distinct global banks the thread issued
	// column commands to during the epoch (hook-derived occupancy).
	BanksTouched int `json:"banks_touched"`
	// SlowdownEst is the runtime slowdown estimate: the thread's best epoch
	// IPC seen so far divided by this epoch's IPC (≥1 once warmed up; 0
	// when the thread retired nothing this epoch). See DESIGN.md.
	SlowdownEst float64 `json:"slowdown_est"`
	// Phase is the scenario phase ID active during the epoch (schema v2;
	// empty for stationary runs).
	Phase string `json:"phase,omitempty"`
	// Idle marks a thread whose scenario phase models a departed/idle
	// tenant (schema v2).
	Idle bool `json:"idle,omitempty"`
}

// Epoch is one epoch-boundary sample (one scheduling quantum).
type Epoch struct {
	// Index is the 0-based epoch sequence number.
	Index int `json:"index"`
	// Cycle and MemCycle locate the boundary on both clocks.
	Cycle    uint64 `json:"cycle"`
	MemCycle uint64 `json:"mem_cycle"`
	// BankOccupancy is the fraction of all banks that served at least one
	// column command during the epoch.
	BankOccupancy float64 `json:"bank_occupancy"`
	// Threads holds the per-thread detail in thread order.
	Threads []EpochThread `json:"threads"`
	// ActiveThreads counts threads not in an idle scenario phase this epoch
	// (schema v2; only set on scenario runs, where phase labels exist).
	ActiveThreads int `json:"active_threads,omitempty"`
	// MaxSlowdownEst is the epoch's maximum per-thread SlowdownEst — the
	// fairness-over-time series (schema v2; 0 when no thread progressed).
	MaxSlowdownEst float64 `json:"max_slowdown_est,omitempty"`
}

// Shift is one recorded scenario demand shift: the quantum boundary at
// which one or more threads' timeline phases changed. When a later
// partition-policy mask change occurs, the shift is marked reacted and its
// reaction latency (repartition cycle − shift cycle) recorded — the
// repartition-reaction series the paper's dynamism claim is judged by.
type Shift struct {
	// Cycle and MemCycle locate the shift on both clocks.
	Cycle    uint64 `json:"cycle"`
	MemCycle uint64 `json:"mem_cycle"`
	// Threads lists the threads whose phase changed at this boundary.
	Threads []int `json:"threads"`
	// Reacted reports whether a repartition followed before the run ended.
	Reacted bool `json:"reacted"`
	// ReactionCycle is the first mask change at or after the shift.
	ReactionCycle uint64 `json:"reaction_cycle,omitempty"`
	// ReactionLatency is ReactionCycle − Cycle, in CPU cycles.
	ReactionLatency uint64 `json:"reaction_latency,omitempty"`
}

// Repartition is one recorded partition-policy decision that changed masks.
type Repartition struct {
	// Cycle and MemCycle locate the decision on both clocks.
	Cycle    uint64 `json:"cycle"`
	MemCycle uint64 `json:"mem_cycle"`
	// Colors[t] is the size of thread t's bank mask after the decision.
	Colors []int `json:"colors"`
}

// Recorder collects request-lifecycle events and epoch samples. A nil
// *Recorder is the disabled state: every method is a no-op.
type Recorder struct {
	opt Options

	// Monotonic event counters.
	enqueues, activates uint64
	colReads, colWrites uint64
	completions         uint64
	dropped             uint64

	spans   []Span
	epochs  []Epoch
	reparts []Repartition
	shifts  []Shift
	// firstUnreacted indexes the earliest shift no repartition has closed
	// yet; everything before it is reacted (shifts close in order).
	firstUnreacted int

	// Per-epoch scratch: bankMark[t*NumBanks+b] == epochStamp means thread
	// t touched bank b this epoch; globalMark likewise per bank. Stamps
	// avoid clearing the arrays at every boundary.
	bankMark   []uint32
	globalMark []uint32
	epochStamp uint32
}

// NewRecorder builds an enabled recorder. It returns an error when the
// observed shape is degenerate, since every hook would then misindex.
func NewRecorder(opt Options) (*Recorder, error) {
	if opt.NumThreads <= 0 || opt.NumBanks <= 0 {
		return nil, fmt.Errorf("obs: need positive NumThreads (%d) and NumBanks (%d)", opt.NumThreads, opt.NumBanks)
	}
	r := &Recorder{
		opt:        opt,
		bankMark:   make([]uint32, opt.NumThreads*opt.NumBanks),
		globalMark: make([]uint32, opt.NumBanks),
		epochStamp: 1,
	}
	if opt.Spans {
		// Preallocate a modest starting capacity; growth is amortised and
		// happens outside the simulated clock, never affecting timing.
		r.spans = make([]Span, 0, 4096)
	}
	return r, nil
}

// NumThreads returns the observed thread count (0 on a nil recorder).
func (r *Recorder) NumThreads() int {
	if r == nil {
		return 0
	}
	return r.opt.NumThreads
}

// OnEnqueue records a request accepted into a controller queue.
func (r *Recorder) OnEnqueue(thread int, isWrite bool) {
	if r == nil {
		return
	}
	r.enqueues++
	_ = thread
	_ = isWrite
}

// OnActivate records a row activation performed for the given thread.
func (r *Recorder) OnActivate(thread, globalBank int) {
	if r == nil {
		return
	}
	r.activates++
	r.touch(thread, globalBank)
}

// OnColumn records a column command (the data command) for the given
// thread on the given global bank.
func (r *Recorder) OnColumn(thread, globalBank int, isWrite bool) {
	if r == nil {
		return
	}
	if isWrite {
		r.colWrites++
	} else {
		r.colReads++
	}
	r.touch(thread, globalBank)
}

// OnComplete records a finished read request (arrival → data end).
func (r *Recorder) OnComplete(thread, channel int, arrival, end uint64, rowHit bool) {
	if r == nil {
		return
	}
	r.completions++
	if !r.opt.Spans {
		return
	}
	if len(r.spans) >= DefaultMaxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, Span{
		Thread:  int32(thread),
		Channel: int32(channel),
		Arrival: arrival,
		End:     end,
		RowHit:  rowHit,
	})
}

// touch stamps (thread, bank) and the bank itself for the current epoch.
func (r *Recorder) touch(thread, globalBank int) {
	if thread < 0 || thread >= r.opt.NumThreads || globalBank < 0 || globalBank >= r.opt.NumBanks {
		return
	}
	r.bankMark[thread*r.opt.NumBanks+globalBank] = r.epochStamp
	r.globalMark[globalBank] = r.epochStamp
}

// OnEpoch closes the current epoch: the caller provides the clock position
// and per-thread profile-derived fields; the recorder fills in the
// hook-derived occupancy fields and advances the epoch stamp. The threads
// slice is copied, so callers may reuse a scratch buffer across epochs.
func (r *Recorder) OnEpoch(cycle, memCycle uint64, threads []EpochThread) {
	if r == nil {
		return
	}
	touched := 0
	for b := 0; b < r.opt.NumBanks; b++ {
		if r.globalMark[b] == r.epochStamp {
			touched++
		}
	}
	for t := range threads {
		if t >= r.opt.NumThreads {
			break
		}
		n := 0
		row := r.bankMark[t*r.opt.NumBanks : (t+1)*r.opt.NumBanks]
		for _, m := range row {
			if m == r.epochStamp {
				n++
			}
		}
		threads[t].BanksTouched = n
	}
	kept := make([]EpochThread, len(threads))
	copy(kept, threads)
	ep := Epoch{
		Index:         len(r.epochs),
		Cycle:         cycle,
		MemCycle:      memCycle,
		BankOccupancy: float64(touched) / float64(r.opt.NumBanks),
		Threads:       kept,
	}
	scenario := false
	for _, th := range kept {
		if th.Phase != "" || th.Idle {
			scenario = true
		}
		if th.SlowdownEst > ep.MaxSlowdownEst {
			ep.MaxSlowdownEst = th.SlowdownEst
		}
	}
	if scenario {
		for _, th := range kept {
			if !th.Idle {
				ep.ActiveThreads++
			}
		}
	}
	r.epochs = append(r.epochs, ep)
	r.epochStamp++
	if r.epochStamp == 0 { // wrapped: marks are stale-safe only if nonzero
		r.epochStamp = 1
		for i := range r.bankMark {
			r.bankMark[i] = 0
		}
		for i := range r.globalMark {
			r.globalMark[i] = 0
		}
	}
}

// OnRepartition records a partition-policy decision that changed masks.
// The colors slice is retained (callers must pass a fresh slice).
func (r *Recorder) OnRepartition(cycle, memCycle uint64, colors []int) {
	if r == nil {
		return
	}
	r.reparts = append(r.reparts, Repartition{Cycle: cycle, MemCycle: memCycle, Colors: colors})
	// A mask change answers every demand shift that preceded it. Shifts
	// close in order, so everything before firstUnreacted is already done.
	for r.firstUnreacted < len(r.shifts) {
		s := &r.shifts[r.firstUnreacted]
		if s.Cycle >= cycle {
			break
		}
		s.Reacted = true
		s.ReactionCycle = cycle
		s.ReactionLatency = cycle - s.Cycle
		r.firstUnreacted++
	}
}

// OnDemandShift records a scenario timeline event: the listed threads
// changed phase (and therefore demand) at the given cycle. The threads
// slice is copied.
func (r *Recorder) OnDemandShift(cycle, memCycle uint64, threads []int) {
	if r == nil {
		return
	}
	kept := make([]int, len(threads))
	copy(kept, threads)
	r.shifts = append(r.shifts, Shift{Cycle: cycle, MemCycle: memCycle, Threads: kept})
}

// Epochs returns the recorded epoch series (nil on a nil recorder).
func (r *Recorder) Epochs() []Epoch {
	if r == nil {
		return nil
	}
	return r.epochs
}

// Spans returns the recorded request spans (nil on a nil recorder).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// Repartitions returns the recorded repartition decisions.
func (r *Recorder) Repartitions() []Repartition {
	if r == nil {
		return nil
	}
	return r.reparts
}

// Shifts returns the recorded demand shifts (nil on a nil recorder).
func (r *Recorder) Shifts() []Shift {
	if r == nil {
		return nil
	}
	return r.shifts
}

// Counters returns the recorder's event counters as a name → value map
// (nil on a nil recorder), using the Counter* names.
func (r *Recorder) Counters() map[string]uint64 {
	if r == nil {
		return nil
	}
	return map[string]uint64{
		CounterEnqueues:     r.enqueues,
		CounterActivates:    r.activates,
		CounterColumnReads:  r.colReads,
		CounterColumnWrites: r.colWrites,
		CounterCompletions:  r.completions,
		CounterRepartitions: uint64(len(r.reparts)),
		CounterShifts:       uint64(len(r.shifts)),
		CounterEpochs:       uint64(len(r.epochs)),
		CounterDropped:      r.dropped,
	}
}

// WriteEpochCSV renders the epoch series as CSV: one row per
// (epoch, thread), wide enough for spreadsheet pivoting.
func (r *Recorder) WriteEpochCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	return WriteEpochCSV(w, r.epochs)
}

// WriteEpochCSV renders an epoch series as CSV.
func WriteEpochCSV(w io.Writer, epochs []Epoch) error {
	if _, err := fmt.Fprintln(w, "epoch,cycle,mem_cycle,bank_occupancy,thread,served,row_hit_rate,ipc,banks,banks_touched,slowdown_est,phase,idle"); err != nil {
		return err
	}
	for _, e := range epochs {
		for t, th := range e.Threads {
			if _, err := fmt.Fprintf(w, "%d,%d,%d,%.4f,%d,%d,%.4f,%.4f,%d,%d,%.4f,%s,%t\n",
				e.Index, e.Cycle, e.MemCycle, e.BankOccupancy,
				t, th.Served, th.RowHitRate, th.IPC, th.Banks, th.BanksTouched, th.SlowdownEst,
				th.Phase, th.Idle); err != nil {
				return err
			}
		}
	}
	return nil
}
