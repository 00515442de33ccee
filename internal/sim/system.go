package sim

import (
	"fmt"
	"math/bits"

	"dbpsim/internal/addr"
	"dbpsim/internal/bankpart"
	"dbpsim/internal/cache"
	"dbpsim/internal/core"
	"dbpsim/internal/cpu"
	"dbpsim/internal/dram"
	"dbpsim/internal/mcp"
	"dbpsim/internal/memctrl"
	"dbpsim/internal/obs"
	"dbpsim/internal/paging"
	"dbpsim/internal/profile"
	"dbpsim/internal/scenario"
	"dbpsim/internal/sched"
	"dbpsim/internal/stats"
	"dbpsim/internal/trace"
)

// Bench pairs a benchmark name with its trace generator.
type Bench struct {
	Name string
	Gen  trace.Generator
}

// quantumUpdater is implemented by schedulers that consume quantum profiles
// (TCM, ATLAS).
type quantumUpdater interface {
	UpdateQuantum([]profile.ThreadSample)
}

// System is one assembled simulated machine.
type System struct {
	cfg    Config
	names  []string
	mapper *addr.Mapper
	alloc  *paging.Allocator
	tables []*paging.PageTable
	cores  []*cpu.Core
	ctrls  []*memctrl.Controller
	prof   *profile.Profiler

	// scheduler is the one every controller consults (a test wrapper
	// aside); it and policy snapshot their own state.
	scheduler memctrl.Scheduler
	policy    bankpart.Policy
	dbp       *core.DBP
	updater   quantumUpdater
	llc       *cache.Shared

	// pendingProgress carries restored run-loop progress from
	// RestoreSnapshot to RunCheckpointed.
	pendingProgress *RunProgress

	cycle     uint64
	memCycles uint64
	partQ     uint64 // partition quantum (CPU cycles), 0 = static policy
	schedQ    uint64
	// skipping enables event-driven cycle skipping (see trySkip). On by
	// default; results are bit-identical either way, so it is a run-speed
	// knob, not a config parameter (and deliberately not part of the
	// snapshot config fingerprint).
	skipping bool
	// skippedCycles counts CPU cycles covered by clock jumps instead of
	// per-cycle ticking. Host-side observability only: never serialised and
	// never part of any ledger (it differs between skip modes by design).
	skippedCycles uint64
	// nextMemTick is the next CPU cycle that ticks the controllers (a
	// multiple of CPUClockRatio) and nextQuantum the next scheduler-quantum
	// boundary after the clock; setCycle derives both.
	nextMemTick uint64
	nextQuantum uint64
	// coreWake[i] is the cycle core i next needs a Tick, recorded when a
	// Tick retired nothing and NextEvent certified a stall (cpu.NeverEvent
	// while it waits on DRAM; 0 when awake). A sleeping core leaves the
	// awake set: step and trySkip do not visit it, and its stalled cycles
	// are applied in one bulk Stall when it is next touched (see catchUp).
	// A demand completion for the thread, a due wake and RestoreSnapshot
	// return it to the set. Derived, unserialised state; only used with
	// skipping on.
	coreWake []uint64
	// awake holds one bit per awake core, in index order; asleep counts the
	// cores outside it, and nextWake lower-bounds their earliest coreWake
	// (it may lag low after a demand completion; wakeDue makes it exact).
	awake    []uint64
	asleep   int
	nextWake uint64
	// crossPending is set when a core crossed its warmup and measurement
	// thresholds in one step: the run loop records the second crossing one
	// iteration later, when the core may already be asleep, so that
	// iteration visits every core and trySkip does not jump.
	crossPending bool
	// sleptCoreCycles counts core-cycles step spent on sleeping cores.
	// Diagnostic only, like skippedCycles.
	sleptCoreCycles uint64

	// aggregated profile between partition quanta
	agg      []profile.ThreadSample
	aggCount int

	// lifetime per-thread accumulation (from quantum samples)
	life        []profile.ThreadSample
	lifeBLPWSum []float64

	timeline []TimelinePoint
	latHist  []*stats.Histogram
	checker  *invariantChecker
	invErr   error

	// scn, when non-nil, is the compiled phase-shifting scenario runtime:
	// its timeline events are applied at scheduler-quantum boundaries (see
	// onSchedQuantum) and its next-event cycle bounds cycle skipping.
	scn *scenario.Runtime

	// rec, when non-nil, receives epoch samples and repartition events (the
	// controllers hold their own pointer for request-lifecycle hooks).
	rec *obs.Recorder
	// epochScratch and partScratch are reused across quanta so the
	// steady-state loop does not allocate.
	epochScratch []obs.EpochThread
	partScratch  []profile.ThreadSample
	// bestIPC[t] is thread t's best epoch IPC so far — the alone-run proxy
	// behind the recorder's runtime slowdown estimate.
	bestIPC []float64

	migrationDrops uint64
}

// NewSystem assembles a system running the given benchmarks (one per core).
func NewSystem(cfg Config, benches []Bench) (*System, error) {
	return newSystem(cfg, benches, nil)
}

// newSystem is NewSystem with an optional wrapper around the scheduler the
// controllers consult; tests count scheduler work through it.
func newSystem(cfg Config, benches []Bench, wrap func(memctrl.Scheduler) memctrl.Scheduler) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(benches) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d benchmarks for %d cores", len(benches), cfg.Cores)
	}
	names := make([]string, len(benches))
	for i, b := range benches {
		names[i] = b.Name
	}
	s := &System{
		cfg:         cfg,
		names:       names,
		mapper:      addr.NewMapperScheme(cfg.Geometry, cfg.Mapping),
		schedQ:      cfg.SchedQuantumCPUCycles,
		partQ:       cfg.partitionQuantum(),
		agg:         make([]profile.ThreadSample, cfg.Cores),
		life:        make([]profile.ThreadSample, cfg.Cores),
		lifeBLPWSum: make([]float64, cfg.Cores),
		partScratch: make([]profile.ThreadSample, cfg.Cores),
		coreWake:    make([]uint64, cfg.Cores),
		awake:       make([]uint64, (cfg.Cores+63)/64),
		skipping:    true,
	}
	s.setCycle(0)
	s.wakeAll()
	s.alloc = paging.NewAllocator(s.mapper)

	// Scheduler (shared across channels so thread ranks are global).
	var scheduler memctrl.Scheduler
	switch cfg.Scheduler {
	case SchedFCFS:
		scheduler = sched.NewFCFS()
	case SchedFRFCFS:
		scheduler = sched.NewFRFCFS()
	case SchedTCM:
		tc := sched.DefaultTCMConfig(cfg.Cores)
		tc.ClusterThresh, tc.ShuffleInterval = cfg.TCMClusterThresh, cfg.TCMShuffleInterval
		tc.RankOverRowHit = cfg.TCMRankOverRowHit
		if cfg.TCMShuffleRotate {
			tc.Shuffle = sched.ShuffleRotate
		}
		t, err := sched.NewTCM(tc)
		if err != nil {
			return nil, err
		}
		scheduler, s.updater = t, t
	case SchedATLAS:
		a, err := sched.NewATLAS(cfg.Cores, cfg.ATLASAlpha)
		if err != nil {
			return nil, err
		}
		scheduler, s.updater = a, a
	case SchedPARBS:
		pb, err := sched.NewPARBS(cfg.PARBSMarkingCap)
		if err != nil {
			return nil, err
		}
		scheduler = pb
	case SchedFRFCFSCap:
		fc, err := sched.NewFRFCFSCap(cfg.FRFCFSRowHitCap)
		if err != nil {
			return nil, err
		}
		scheduler = fc
	case SchedBLISS:
		bl, err := sched.NewBLISS(cfg.BLISSStreak, cfg.BLISSClearInterval)
		if err != nil {
			return nil, err
		}
		scheduler = bl
	}
	// Partition policy.
	switch cfg.Partition {
	case PartNone:
		s.policy = bankpart.NewNone(cfg.Cores, cfg.Geometry)
	case PartEqual:
		p, err := bankpart.NewEqual(cfg.Cores, cfg.Geometry)
		if err != nil {
			return nil, err
		}
		s.policy = p
	case PartDBP:
		p, err := core.New(cfg.DBP, cfg.Cores, cfg.Geometry)
		if err != nil {
			return nil, err
		}
		s.policy, s.dbp = p, p
	case PartMCP:
		// MCP boosts very-low-intensity threads through a priority layer
		// over the scheduler.
		prio := sched.NewThreadPriority(scheduler, cfg.Cores)
		p, err := mcp.New(cfg.MCP, cfg.Cores, cfg.Geometry, prio)
		if err != nil {
			return nil, err
		}
		scheduler, s.policy = prio, p
	case PartFixed:
		p, err := bankpart.NewFixed(cfg.FixedMasks, cfg.Geometry)
		if err != nil {
			return nil, err
		}
		s.policy = p
	}
	s.scheduler = scheduler
	if wrap != nil {
		scheduler = wrap(scheduler)
	}

	// Channels and controllers.
	s.ctrls = make([]*memctrl.Controller, cfg.Geometry.Channels)
	for ch := range s.ctrls {
		channel, err := dram.NewChannel(cfg.Geometry.RanksPerChannel, cfg.Geometry.BanksPerRank, cfg.Timing)
		if err != nil {
			return nil, err
		}
		ctrl, err := memctrl.NewController(ch, channel, s.mapper, scheduler, cfg.Ctrl, cfg.Cores)
		if err != nil {
			return nil, err
		}
		ctrl.SetDemandCompleter(s.demandDone)
		s.ctrls[ch] = ctrl
	}

	// Page tables with initial masks.
	initial := s.policy.Initial()
	s.tables = make([]*paging.PageTable, cfg.Cores)
	for t := range s.tables {
		s.tables[t] = paging.NewPageTable(s.mapper, s.alloc)
		if err := s.tables[t].SetMask(initial[t]); err != nil {
			return nil, err
		}
	}

	// Optional shared LLC.
	if cfg.L3.SizeBytes > 0 {
		umonEvery := 0
		if cfg.L3Policy == L3UCP {
			umonEvery = cfg.L3UMONSampleEvery
		}
		llc, err := cache.NewShared(cfg.L3, cfg.Cores, umonEvery)
		if err != nil {
			return nil, err
		}
		if cfg.L3Policy == L3Equal || cfg.L3Policy == L3UCP {
			counts := make([]int, cfg.Cores)
			k, rem := cfg.L3.Ways/cfg.Cores, cfg.L3.Ways%cfg.Cores
			for t := range counts {
				counts[t] = k
				if t < rem {
					counts[t]++
				}
			}
			if err := llc.SetWayAllocation(counts); err != nil {
				return nil, err
			}
		}
		s.llc = llc
	}

	// Cores.
	s.cores = make([]*cpu.Core, cfg.Cores)
	for i := range s.cores {
		hier, err := cache.NewHierarchy(cfg.L1, cfg.L2)
		if err != nil {
			return nil, err
		}
		c, err := cpu.New(i, cfg.CPU, benches[i].Gen, s.tables[i], hier, (*memoryPort)(s))
		if err != nil {
			return nil, err
		}
		if s.llc != nil {
			c.AttachLLC(s.llc, cfg.L3Latency)
		}
		s.cores[i] = c
	}

	// Profiler.
	coreSrcs := make([]profile.CoreSource, cfg.Cores)
	for i, c := range s.cores {
		coreSrcs[i] = c
	}
	ctrlSrcs := make([]profile.ControllerSource, len(s.ctrls))
	for i, c := range s.ctrls {
		ctrlSrcs[i] = c
	}
	s.prof = profile.New(coreSrcs, ctrlSrcs, cfg.Geometry.NumColors())
	for _, ctrl := range s.ctrls {
		ctrl.SetReadObserver(s.prof)
	}

	if cfg.RecordLatencyHistograms {
		s.latHist = make([]*stats.Histogram, cfg.Cores)
		bounds := []float64{25, 50, 75, 100, 150, 200, 300, 500, 1000}
		for i := range s.latHist {
			s.latHist[i] = stats.NewHistogram(bounds)
		}
		for _, ctrl := range s.ctrls {
			ctrl.SetCompletionHook(func(thread int, latency uint64) {
				if thread >= 0 && thread < len(s.latHist) {
					s.latHist[thread].Observe(float64(latency))
				}
			})
		}
	}
	return s, nil
}

// memoryPort adapts System to cpu.Memory without exporting Submit on System.
type memoryPort System

// Submit implements cpu.Memory: route the request to its channel. The
// by-value controller Submit backs it with a pooled request, so the
// steady-state miss path allocates nothing.
func (p *memoryPort) Submit(thread int, paddr uint64, isWrite, demand bool, tag uint64) bool {
	s := (*System)(p)
	loc := s.mapper.Decode(paddr)
	return s.ctrls[loc.Channel].Submit(memctrl.Request{
		Thread:  thread,
		Addr:    paddr,
		IsWrite: isWrite,
		Demand:  demand,
		Tag:     tag,
	})
}

// demandDone is the controllers' flattened demand-completion path: it hands
// a finished demand read back to the issuing core by tag (replacing the old
// per-request OnComplete closures) and wakes the core.
func (s *System) demandDone(thread int, tag uint64) {
	if thread >= 0 && thread < len(s.cores) {
		if s.coreWake[thread] != 0 {
			// The controllers tick after the cores, so per-cycle execution
			// has already stalled the core through this cycle: catch it up
			// to cycle+1 before the completion changes its state.
			s.wake(thread, s.cycle+1)
		}
		s.cores[thread].DemandDone(tag)
	}
}

// AttachRecorder wires an observability recorder into the system: the
// controllers report request-lifecycle events and the kernel reports epoch
// samples and repartition decisions. Attaching nil detaches. Safe to call
// any time before Run; recording never alters simulated timing.
func (s *System) AttachRecorder(r *obs.Recorder) {
	s.rec = r
	for _, ctrl := range s.ctrls {
		ctrl.SetRecorder(r)
	}
	if r != nil && s.bestIPC == nil {
		s.bestIPC = make([]float64, s.cfg.Cores)
	}
}

// Recorder returns the attached recorder (nil when observability is off).
func (s *System) Recorder() *obs.Recorder { return s.rec }

// SetScenario attaches a compiled scenario runtime whose generators the
// system's cores are already running (the benches passed to NewSystem must
// be the runtime's generators). Timeline events then fire at
// scheduler-quantum boundaries: demand shifts are reported to the recorder,
// phase labels annotate the epoch series, and the runtime's state rides in
// snapshots so resumed runs replay every phase switch bit-identically. Must
// be called before Run (and before RestoreSnapshot when resuming).
func (s *System) SetScenario(r *scenario.Runtime) { s.scn = r }

// Scenario returns the attached scenario runtime (nil for stationary runs).
func (s *System) Scenario() *scenario.Runtime { return s.scn }

// Policy returns the active partition policy.
func (s *System) Policy() bankpart.Policy { return s.policy }

// DBP returns the DBP instance when the partition policy is PartDBP.
func (s *System) DBP() *core.DBP { return s.dbp }

// Cycle returns the current CPU cycle.
func (s *System) Cycle() uint64 { return s.cycle }

// SetCycleSkipping toggles event-driven cycle skipping and per-core sleeping
// (default on). Results — ledgers, stats, checkpoints — are bit-identical
// either way; turning it off only forces the run loop back to strict
// cycle-by-cycle ticking of every core (useful for debugging and for the
// bit-identity test suite itself).
func (s *System) SetCycleSkipping(on bool) {
	s.skipping = on
	s.catchUp()
	s.wakeAll()
}

// SkippedCycles returns the CPU cycles covered by event-driven clock jumps
// so far (0 with skipping disabled). Diagnostic only; not simulated state.
func (s *System) SkippedCycles() uint64 { return s.skippedCycles }

// SleptCoreCycles returns the core-cycles of stepped cycles that sleeping
// cores spent outside Tick, applied later as bulk stalls (0 with skipping
// disabled). Diagnostic only; not simulated state.
func (s *System) SleptCoreCycles() uint64 { return s.sleptCoreCycles }

// setCycle moves the clock to c and derives the next controller tick (the
// first multiple of CPUClockRatio at or after c) and the next
// scheduler-quantum boundary (the first multiple of the quantum after c).
func (s *System) setCycle(c uint64) {
	s.cycle = c
	r := uint64(s.cfg.CPUClockRatio)
	s.nextMemTick = (c + r - 1) / r * r
	s.nextQuantum = (c/s.schedQ + 1) * s.schedQ
}

// wakeAll empties the sleeping set without touching the cores (they must
// already be caught up to the clock).
func (s *System) wakeAll() {
	clear(s.coreWake)
	clear(s.awake)
	for i := 0; i < s.cfg.Cores; i++ {
		s.awake[i>>6] |= 1 << (i & 63)
	}
	s.asleep = 0
	s.nextWake = cpu.NeverEvent
}

// awakeIter walks the awake set in core order:
//
//	for it := s.awakeCores(); ; {
//		i := it.next()
//		if i < 0 {
//			break
//		}
//		...
//	}
//
// Like a range over s.awake, it reads each 64-core word once, when it
// reaches it: a core that sleeps or wakes in a word being walked is seen
// from the next walk on.
type awakeIter struct {
	s    *System
	w    int
	word uint64
}

// awakeCores starts a walk of the awake set.
func (s *System) awakeCores() awakeIter { return awakeIter{s: s, w: -1} }

// next returns the next awake core, or -1 at the end of the set.
func (it *awakeIter) next() int {
	for it.word == 0 {
		it.w++
		// The unsigned compare lets the compiler drop the bounds check.
		if uint(it.w) >= uint(len(it.s.awake)) {
			return -1
		}
		it.word = it.s.awake[it.w]
	}
	i := it.w<<6 | bits.TrailingZeros64(it.word)
	it.word &= it.word - 1
	return i
}

// sleep takes core i out of the awake set until cycle wake.
func (s *System) sleep(i int, wake uint64) {
	s.coreWake[i] = wake
	s.awake[i>>6] &^= 1 << (i & 63)
	s.asleep++
	if wake < s.nextWake {
		s.nextWake = wake
	}
}

// wake returns sleeping core i to the awake set, first applying its stalled
// cycles up to cycle to.
func (s *System) wake(i int, to uint64) {
	s.stallTo(i, to)
	s.coreWake[i] = 0
	s.awake[i>>6] |= 1 << (i & 63)
	s.asleep--
}

// stallTo advances core i, stalled since it fell asleep, to cycle to in one
// bulk Stall.
func (s *System) stallTo(i int, to uint64) {
	if c := s.cores[i]; c.Now() < to {
		c.Stall(to - c.Now())
	}
}

// catchUp brings every sleeping core's clock up to the system clock, so its
// timing state reads as per-cycle execution would have left it. Anything
// that reads a sleeping core's timing state (snapshots, paranoid checks,
// the end of a run) calls it first; the cores stay asleep.
func (s *System) catchUp() {
	if s.asleep == 0 {
		return
	}
	for i, w := range s.coreWake {
		if w != 0 {
			s.stallTo(i, s.cycle)
		}
	}
}

// wakeDue wakes every sleeping core whose wake cycle has come and makes
// nextWake the exact earliest wake of the rest.
func (s *System) wakeDue() {
	next := cpu.NeverEvent
	for i, w := range s.coreWake {
		switch {
		case w == 0:
		case w <= s.cycle:
			s.wake(i, s.cycle)
		case w < next:
			next = w
		}
	}
	s.nextWake = next
}

// step advances the whole system by one CPU cycle. With skipping on, only
// the awake cores are visited; after a Tick that retired nothing, the
// core's NextEvent, when in the future, puts it to sleep until then.
func (s *System) step() error {
	if s.cycle >= s.nextWake {
		s.wakeDue()
	}
	s.sleptCoreCycles += uint64(s.asleep)
	for it := s.awakeCores(); ; {
		i := it.next()
		if i < 0 {
			break
		}
		c := s.cores[i]
		retired := c.Retired()
		if err := c.Tick(); err != nil {
			return err
		}
		if s.skipping && c.Retired() == retired {
			if e, rate := c.NextEvent(); e > s.cycle+1 && rate == 0 {
				s.sleep(i, e)
			}
		}
	}
	if s.cycle == s.nextMemTick {
		s.nextMemTick += uint64(s.cfg.CPUClockRatio)
		// Empty samples only touch unserialised sampler scratch, so gating
		// on outstanding work changes no observable state.
		if s.anyOutstanding() {
			s.prof.SampleBLP()
		}
		for _, ctrl := range s.ctrls {
			ctrl.Tick()
		}
		s.memCycles++
	}
	s.cycle++
	if s.cycle == s.nextQuantum {
		s.nextQuantum += s.schedQ
		s.onSchedQuantum()
	}
	return s.invErr
}

// anyOutstanding reports whether any controller holds queued or in-flight
// reads (the cheap gate for BLP sampling).
func (s *System) anyOutstanding() bool {
	for _, ctrl := range s.ctrls {
		if ctrl.HasOutstandingReads() {
			return true
		}
	}
	return false
}

// noRetireTarget marks a core whose retired-instruction count has no
// pending run-loop crossing (its measurement window is already finished).
const noRetireTarget = ^uint64(0)

// trySkip attempts an event-driven clock jump: when every core and
// controller reports no activity before some future cycle — or provably
// linear activity a bulk Skip can replay — the system state over the gap is
// exactly what per-cycle ticking would produce, so the clock jumps there
// directly with the per-cycle bookkeeping applied in bulk.
// The jump is clamped to the next scheduler-quantum boundary (keeping epoch,
// checkpoint and poll cadence byte-identical) and to maxCycles (keeping
// deadlock detection identical). retireTargets[i] is core i's next
// retired-instruction threshold in the run loop (warmup or warmup+measure;
// noRetireTarget when finished): jumps are clamped so a streaming core lands
// exactly on the cycle where per-cycle execution would detect the crossing,
// keeping startCycle/finishCycle — and hence measured IPC — bit-identical.
// Returns jumped=false when any component is active now, a crossing
// detection is pending, or the jump would not clear at least one full cycle.
func (s *System) trySkip(maxCycles uint64, retireTargets []uint64) (jumped bool, err error) {
	c := s.cycle
	if s.crossPending {
		return false, nil // a recorded crossing is due at the per-cycle-exact cycle
	}
	if s.nextWake <= c {
		s.wakeDue() // a due core is active now; a stale bound is refreshed
	}
	limit := s.nextQuantum
	if maxCycles < limit {
		limit = maxCycles
	}
	if s.scn != nil {
		// Timeline events land on quantum boundaries, so the quantum clamp
		// above already covers them; this explicit clamp keeps the invariant
		// local (the skip planner's horizon includes the next timeline event)
		// rather than depending on the compiler's rounding.
		if nc := s.scn.NextChange(); nc < limit {
			limit = nc
		}
	}
	if limit <= c+1 {
		return false, nil
	}
	// Sleeping cores retire nothing before their wakes, and the run loop
	// has already recorded their crossings, so only the awake cores need
	// asking.
	wake := min(limit, s.nextWake)
	for it := s.awakeCores(); ; {
		i := it.next()
		if i < 0 {
			break
		}
		core := s.cores[i]
		e, rate := core.NextEvent()
		if e <= c {
			return false, nil
		}
		if t := retireTargets[i]; t != noRetireTarget {
			r := core.Retired()
			if r >= t {
				// Crossing already happened but the run loop has not
				// recorded it yet; step so detection fires at the
				// per-cycle-exact cycle.
				return false, nil
			}
			if rate > 0 {
				// Streaming at rate/cycle: per-cycle execution would
				// record the crossing with s.cycle == cross, so never
				// jump past it.
				if cross := c + (t-r+rate-1)/rate; cross < wake {
					wake = cross
				}
			}
		}
		if e < wake {
			wake = e
		}
	}
	if wake <= c+1 {
		return false, nil // the controllers can only bring the wake closer
	}
	ratio := uint64(s.cfg.CPUClockRatio)
	memLimit := (limit + ratio - 1) / ratio
	for _, ctrl := range s.ctrls {
		me := ctrl.NextEvent()
		if me >= memLimit { // also covers memctrl.NeverEvent without overflow
			continue
		}
		ce := me * ratio // the CPU cycle that processes memory cycle me
		if ce <= c {
			return false, nil
		}
		if ce < wake {
			wake = ce
		}
	}
	if wake <= c+1 {
		return false, nil
	}

	delta := wake - c
	s.skippedCycles += delta
	for it := s.awakeCores(); ; {
		i := it.next()
		if i < 0 {
			break
		}
		s.cores[i].Skip(delta)
	}
	// Memory cycles ticked in CPU-cycle range [c, wake): multiples of ratio.
	fromMem, quantum := s.nextMemTick, wake == s.nextQuantum
	s.setCycle(wake)
	if m := (s.nextMemTick - fromMem) / ratio; m > 0 {
		if s.anyOutstanding() {
			s.prof.SkipSample(m)
		}
		for _, ctrl := range s.ctrls {
			ctrl.Skip(m)
		}
		s.memCycles += m
	}
	if quantum {
		s.onSchedQuantum()
	}
	return true, s.invErr
}

// TimelinePoint is one profiling quantum's per-thread snapshot.
type TimelinePoint struct {
	// Cycle is the CPU cycle at the end of the quantum.
	Cycle uint64
	// IPC is each thread's IPC over the quantum.
	IPC []float64
	// BLP is each thread's achieved bank-level parallelism.
	BLP []float64
	// Banks is each thread's current bank-mask size.
	Banks []int
}

// onSchedQuantum fires at every base profiling quantum.
func (s *System) onSchedQuantum() {
	samples := s.prof.Quantum()
	s.accumulate(samples)
	if s.cfg.Paranoid {
		s.catchUp()
		if s.checker == nil {
			s.checker = newInvariantChecker(s)
		}
		if err := s.checker.check(); err != nil && s.invErr == nil {
			s.invErr = err
		}
	}
	if s.cfg.RecordTimeline {
		p := TimelinePoint{
			Cycle: s.cycle,
			IPC:   make([]float64, len(samples)),
			BLP:   make([]float64, len(samples)),
			Banks: make([]int, len(samples)),
		}
		for i, smp := range samples {
			p.IPC[i] = float64(smp.Instructions) / float64(s.schedQ)
			p.BLP[i] = smp.BLP
			p.Banks[i] = s.tables[i].Mask().Count()
		}
		s.timeline = append(s.timeline, p)
	}
	if s.rec != nil {
		s.recordEpoch(samples)
	}
	if s.updater != nil {
		s.updater.UpdateQuantum(samples)
	}
	for i := range samples {
		a := &s.agg[i]
		a.Thread = i
		a.Instructions += samples[i].Instructions
		a.Misses += samples[i].Misses
		a.Requests += samples[i].Requests
		a.ReadsServed += samples[i].ReadsServed
		a.WritesServed += samples[i].WritesServed
		a.RowHits += samples[i].RowHits
		// BLP/MLP: weight by reads served this base quantum.
		a.BLP += samples[i].BLP * float64(samples[i].ReadsServed)
		a.MLP += samples[i].MLP * float64(samples[i].ReadsServed)
	}
	s.aggCount++
	if s.llc != nil && s.cfg.L3Policy == L3UCP {
		s.repartitionLLC()
	}
	if s.partQ > 0 && s.cycle%s.partQ == 0 {
		s.onPartitionQuantum()
	}
	// Timeline events apply last: the epoch recorded above describes the
	// phase that was active during the quantum just ended, and a repartition
	// decided this quantum can never spuriously "react" to a shift applied
	// at the same boundary (reaction latency stays strictly positive).
	if s.scn != nil {
		if shifted := s.scn.Advance(s.cycle); len(shifted) > 0 && s.rec != nil {
			s.rec.OnDemandShift(s.cycle, s.memCycles, shifted)
		}
	}
}

// repartitionLLC reruns UCP's greedy way allocation from the UMON
// histograms and resets them for the next quantum.
func (s *System) repartitionLLC() {
	umons := make([]*cache.UMON, s.cfg.Cores)
	for t := range umons {
		umons[t] = s.llc.UMONOf(t)
		if umons[t] == nil {
			return
		}
	}
	counts := cache.ComputeUCP(umons, s.cfg.L3.Ways)
	if err := s.llc.SetWayAllocation(counts); err == nil {
		for _, u := range umons {
			u.Reset()
		}
	}
}

// onPartitionQuantum feeds the aggregated profile to the partition policy.
func (s *System) onPartitionQuantum() {
	samples := s.partScratch[:len(s.agg)]
	for i, a := range s.agg {
		x := a
		if x.ReadsServed > 0 {
			x.BLP = a.BLP / float64(a.ReadsServed)
			x.MLP = a.MLP / float64(a.ReadsServed)
		} else {
			x.BLP = 0
			x.MLP = 0
		}
		served := x.ReadsServed + x.WritesServed
		if served > 0 {
			x.RBL = float64(x.RowHits) / float64(served)
		}
		if x.Instructions > 0 {
			x.MPKI = 1000 * float64(x.Misses) / float64(x.Instructions)
		}
		samples[i] = x
		s.agg[i] = profile.ThreadSample{}
	}
	s.aggCount = 0

	masks, changed := s.policy.Quantum(samples)
	if changed {
		for t, m := range masks {
			if err := s.tables[t].SetMask(m); err != nil {
				// An empty mask would be a policy bug; surface loudly.
				panic(fmt.Sprintf("sim: policy %s produced bad mask for thread %d: %v", s.policy.Name(), t, err))
			}
		}
		if s.rec != nil {
			colors := make([]int, len(masks))
			for t, m := range masks {
				colors[t] = m.Count()
			}
			s.rec.OnRepartition(s.cycle, s.memCycles, colors)
		}
	}
	// Migration runs every quantum (not just on changes): large working
	// sets converge onto a new partition over several quanta within the
	// per-quantum budget.
	s.migrate()
}

// migrate moves misplaced pages toward the new masks and injects sampled
// migration traffic (MigrationCostLines posted line transfers per page).
func (s *System) migrate() {
	if s.cfg.MigratePagesPerQuantum <= 0 {
		return
	}
	lineBytes := uint64(s.cfg.Geometry.LineBytes)
	for t, pt := range s.tables {
		moved := pt.Migrate(s.cfg.MigratePagesPerQuantum)
		// Rebalance resident pages over the (possibly grown) partition so
		// the thread actually gains the parallelism it was granted.
		moved += pt.Rebalance(s.cfg.MigratePagesPerQuantum - moved)
		if moved == 0 || s.cfg.MigrationCostLines == 0 {
			continue
		}
		// Sampled cost: a read of the old location and a write of the new
		// one for MigrationCostLines lines per page. Addresses are spread
		// over the thread's working set via its own pages.
		for p := 0; p < moved*s.cfg.MigrationCostLines; p++ {
			vaddr := uint64(p) * uint64(s.cfg.Geometry.PageBytes()) / uint64(s.cfg.MigrationCostLines)
			paddr, _, err := pt.Translate(coldVABase + vaddr%coldVASpan)
			if err != nil {
				continue
			}
			if !(*memoryPort)(s).Submit(t, paddr&^(lineBytes-1), p%2 == 1, false, 0) {
				s.migrationDrops++
			}
		}
	}
}

// Virtual-address window used to synthesise migration traffic addresses.
const (
	coldVABase = 1 << 30
	coldVASpan = 1 << 22
)

// recordEpoch converts one scheduling quantum's profile samples into an
// observability epoch. Only called when a recorder is attached, so the
// disabled path allocates nothing. The slowdown estimate is self-relative:
// each thread's best epoch IPC so far stands in for its alone-run IPC
// (DESIGN.md records this reconstruction decision).
func (s *System) recordEpoch(samples []profile.ThreadSample) {
	if cap(s.epochScratch) < len(samples) {
		s.epochScratch = make([]obs.EpochThread, len(samples))
	}
	threads := s.epochScratch[:len(samples)]
	for i, smp := range samples {
		ipc := float64(smp.Instructions) / float64(s.schedQ)
		if ipc > s.bestIPC[i] {
			s.bestIPC[i] = ipc
		}
		served := smp.ReadsServed + smp.WritesServed
		et := obs.EpochThread{
			Served: served,
			IPC:    ipc,
			Banks:  s.tables[i].Mask().Count(),
		}
		if served > 0 {
			et.RowHitRate = float64(smp.RowHits) / float64(served)
		}
		if ipc > 0 {
			et.SlowdownEst = s.bestIPC[i] / ipc
		}
		if s.scn != nil {
			et.Phase, et.Idle = s.scn.ThreadPhase(i)
		}
		threads[i] = et
	}
	s.rec.OnEpoch(s.cycle, s.memCycles, threads)
}

// accumulate folds quantum samples into the lifetime per-thread totals.
func (s *System) accumulate(samples []profile.ThreadSample) {
	for i := range samples {
		l := &s.life[i]
		l.Thread = i
		l.Instructions += samples[i].Instructions
		l.Misses += samples[i].Misses
		l.Requests += samples[i].Requests
		l.ReadsServed += samples[i].ReadsServed
		l.WritesServed += samples[i].WritesServed
		l.RowHits += samples[i].RowHits
		s.lifeBLPWSum[i] += samples[i].BLP * float64(samples[i].ReadsServed)
	}
}
