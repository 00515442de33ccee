package scenario

import (
	"fmt"
	"hash/fnv"

	"dbpsim/internal/detmap"
	"dbpsim/internal/trace"
	"dbpsim/internal/workload"
)

// NoChange is returned by Runtime.NextChange when no timeline events remain.
const NoChange = ^uint64(0)

// segment is one compiled piece of a thread's timeline: a phase (or ramp
// sub-step of a phase) pinned to a start cycle on the quantum grid and a
// sub-generator index in the thread's Switched generator.
type segment struct {
	phaseID string
	idle    bool
	start   uint64 // quantum multiple; 0 for a thread's first segment
	part    int
}

// event is one pending generator switch, sorted by (cycle, thread).
type event struct {
	cycle  uint64
	thread int
	seg    int
}

// Runtime is a compiled scenario bound to a quantum grid: per-thread
// switchable generators plus the sorted event list that drives them. The
// simulator calls Advance at every scheduler-quantum boundary and
// NextChange from the cycle-skipping planner. Runtime state (which events
// have fired, each generator's switch log) snapshots into checkpoints and
// restores before core replay, keeping resumed runs bit-identical.
type Runtime struct {
	sc      *Scenario
	quantum uint64
	gens    []*workload.Switched
	segs    [][]segment
	events  []event
	applied int
	curSeg  []int
}

// Compile lowers a validated scenario onto the simulator's quantum grid.
// Phase boundaries round up to multiples of quantum (and successive
// boundaries are kept at least one quantum apart), so every switch lands
// exactly on a scheduler-quantum boundary — the invariant that keeps cycle
// skipping and checkpointing exact.
func (sc *Scenario) Compile(quantum uint64) (*Runtime, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if quantum == 0 {
		return nil, fmt.Errorf("scenario %s: compile with zero quantum", sc.Name)
	}
	r := &Runtime{
		sc:      sc,
		quantum: quantum,
		gens:    make([]*workload.Switched, len(sc.Threads)),
		segs:    make([][]segment, len(sc.Threads)),
		curSeg:  make([]int, len(sc.Threads)),
	}
	for ti, th := range sc.Threads {
		var parts []trace.Generator
		var segs []segment
		cursor := uint64(0)    // raw (unrounded) timeline position
		prevMPKI := float64(0) // ramps interpolate from the previous phase
		for _, ph := range th.Phases {
			spec := workload.IdleSpec()
			if !ph.IsIdle() {
				spec, _ = workload.ByName(ph.Bench) // Validate checked existence
			}
			scale := ph.MPKIScale
			if scale == 0 {
				scale = 1
			}
			effMPKI := spec.TargetMPKI * scale
			steps := ph.RampSteps
			if steps < 1 {
				steps = 1
			}
			for k := 0; k < steps; k++ {
				segSpec := spec
				segSpec.TargetMPKI = prevMPKI + (effMPKI-prevMPKI)*float64(k+1)/float64(steps)
				seed := partSeed(sc.Seed, th.Name, len(parts))
				start := roundUpQuantum(cursor+uint64(k)*(ph.DurationCycles/uint64(steps)), quantum)
				if n := len(segs); n > 0 && start <= segs[n-1].start {
					start = segs[n-1].start + quantum
				}
				segs = append(segs, segment{
					phaseID: ph.ID,
					idle:    ph.IsIdle(),
					start:   start,
					part:    len(parts),
				})
				parts = append(parts, segSpec.New(seed))
			}
			prevMPKI = effMPKI
			cursor += ph.DurationCycles
		}
		r.gens[ti] = workload.NewSwitched(parts)
		r.segs[ti] = segs
		for si := 1; si < len(segs); si++ {
			r.events = append(r.events, event{cycle: segs[si].start, thread: ti, seg: si})
		}
	}
	sortEvents(r.events)
	return r, nil
}

// partSeed derives a deterministic generator seed from the scenario seed,
// the thread NAME (not index — so alone-baseline single-thread scenarios
// replay the same stream), and the part index within the thread.
func partSeed(base int64, thread string, part int) int64 {
	h := fnv.New64a()
	h.Write([]byte(thread))
	return base + int64(h.Sum64()%1_000_003) + int64(part)*7919
}

func roundUpQuantum(c, q uint64) uint64 {
	if c%q == 0 {
		return c
	}
	return (c/q + 1) * q
}

// sortEvents orders by (cycle, thread, seg) — insertion sort; event lists
// are tiny and this avoids pulling in sort for a deterministic total order.
func sortEvents(evs []event) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && less(evs[j], evs[j-1]); j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

func less(a, b event) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	if a.thread != b.thread {
		return a.thread < b.thread
	}
	return a.seg < b.seg
}

// Generator returns thread t's switchable generator (for sim.Bench).
func (r *Runtime) Generator(t int) trace.Generator { return r.gens[t] }

// Cores returns the compiled core count.
func (r *Runtime) Cores() int { return len(r.gens) }

// Names returns the thread names in core order.
func (r *Runtime) Names() []string { return r.sc.ThreadNames() }

// Scenario returns the source scenario.
func (r *Runtime) Scenario() *Scenario { return r.sc }

// Advance applies every timeline event due at or before cycle and returns
// the indices of threads whose phase changed (each at most once). The
// simulator calls it at the end of each scheduler-quantum boundary, so a
// switch due at cycle C takes effect from the first instruction after C.
func (r *Runtime) Advance(cycle uint64) []int {
	if r.applied >= len(r.events) || r.events[r.applied].cycle > cycle {
		return nil
	}
	var shifted []int
	for r.applied < len(r.events) && r.events[r.applied].cycle <= cycle {
		ev := r.events[r.applied]
		r.gens[ev.thread].Switch(r.segs[ev.thread][ev.seg].part)
		r.curSeg[ev.thread] = ev.seg
		if len(shifted) == 0 || shifted[len(shifted)-1] != ev.thread {
			shifted = append(shifted, ev.thread)
		}
		r.applied++
	}
	return shifted
}

// NextChange returns the cycle of the next unapplied timeline event
// (always a quantum multiple), or NoChange when the timeline is exhausted.
// The cycle-skipping planner clamps skips to this bound so no event can be
// jumped over.
func (r *Runtime) NextChange() uint64 {
	if r.applied >= len(r.events) {
		return NoChange
	}
	return r.events[r.applied].cycle
}

// ThreadPhase returns thread t's current phase ID and whether the thread
// is idle in that phase.
func (r *Runtime) ThreadPhase(t int) (id string, idle bool) {
	seg := r.segs[t][r.curSeg[t]]
	return seg.phaseID, seg.idle
}

// runtimeState is the gob-serialised checkpoint payload. Current segments
// are not stored: they replay from the applied-event prefix on restore.
type runtimeState struct {
	Applied int
	Logs    [][]workload.SwitchPoint
}

// Snapshot serialises the runtime's mutable state (applied-event count and
// each generator's switch log) for inclusion in a system checkpoint.
func (r *Runtime) Snapshot() ([]byte, error) {
	st := runtimeState{Applied: r.applied, Logs: make([][]workload.SwitchPoint, len(r.gens))}
	for i, g := range r.gens {
		st.Logs[i] = g.Log()
	}
	b, err := detmap.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("scenario: snapshot: %w", err)
	}
	return b, nil
}

// Restore installs a snapshot into a freshly compiled runtime. It must run
// BEFORE the cores fast-forward their generators: the installed switch
// logs then replay each phase switch at its original call index.
func (r *Runtime) Restore(data []byte) error {
	var st runtimeState
	if err := detmap.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("scenario: restore: %w", err)
	}
	if st.Applied < 0 || st.Applied > len(r.events) {
		return fmt.Errorf("scenario: restore: applied %d out of range [0,%d]", st.Applied, len(r.events))
	}
	if len(st.Logs) != len(r.gens) {
		return fmt.Errorf("scenario: restore: %d switch logs for %d threads", len(st.Logs), len(r.gens))
	}
	for i, log := range st.Logs {
		for _, sp := range log {
			if sp.Part < 0 || sp.Part >= r.gens[i].Parts() {
				return fmt.Errorf("scenario: restore: thread %d switch to part %d of %d", i, sp.Part, r.gens[i].Parts())
			}
		}
		r.gens[i].SetLog(log)
	}
	r.applied = st.Applied
	for i := range r.curSeg {
		r.curSeg[i] = 0
	}
	for _, ev := range r.events[:st.Applied] {
		r.curSeg[ev.thread] = ev.seg
	}
	return nil
}
