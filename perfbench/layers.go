package main

import (
	"fmt"
	"time"

	"dbpsim"
	"dbpsim/internal/addr"
	"dbpsim/internal/cache"
	"dbpsim/internal/core"
	"dbpsim/internal/dram"
	"dbpsim/internal/memctrl"
	"dbpsim/internal/paging"
	"dbpsim/internal/profile"
	"dbpsim/internal/sched"
	"dbpsim/internal/trace"
)

// replaySchedulers are the schedulers the controller replay runs, one per
// public constructor in internal/sched.
var replaySchedulers = []string{"fcfs", "frfcfs", "tcm", "atlas", "parbs", "frfcfs-cap", "bliss"}

// replayItems is how many trace items each member contributes to the
// replay.
const replayItems = 20_000

// newScheduler builds a scheduler through its public constructor with the
// system configuration's parameters.
func newScheduler(kind string, cfg dbpsim.Config) (memctrl.Scheduler, error) {
	switch kind {
	case "fcfs":
		return sched.NewFCFS(), nil
	case "frfcfs":
		return sched.NewFRFCFS(), nil
	case "tcm":
		t, err := sched.NewTCM(sched.TCMConfig{
			NumThreads: cfg.Cores, ClusterThresh: cfg.TCMClusterThresh,
			ShuffleInterval: cfg.TCMShuffleInterval, Shuffle: sched.ShuffleInsertion,
		})
		if err != nil {
			return nil, err
		}
		return t, nil
	case "atlas":
		a, err := sched.NewATLAS(cfg.Cores, cfg.ATLASAlpha)
		if err != nil {
			return nil, err
		}
		return a, nil
	case "parbs":
		p, err := sched.NewPARBS(cfg.PARBSMarkingCap)
		if err != nil {
			return nil, err
		}
		return p, nil
	case "frfcfs-cap":
		c, err := sched.NewFRFCFSCap(cfg.FRFCFSRowHitCap)
		if err != nil {
			return nil, err
		}
		return c, nil
	case "bliss":
		b, err := sched.NewBLISS(cfg.BLISSStreak, cfg.BLISSClearInterval)
		if err != nil {
			return nil, err
		}
		return b, nil
	}
	return nil, fmt.Errorf("unknown scheduler %q", kind)
}

// memOp is one DRAM access the cache hierarchy emitted, with the memory
// cycle at which its core would offer it.
type memOp struct {
	cache.MemoryOp
	at uint64
}

// replayLayers times each layer's public entry point outside System, each
// fed by the previous layer's real outputs for the workload's members:
// trace.Generator.Next → paging.PageTable.Translate (the core translates
// before it accesses its physically addressed caches) →
// cache.Hierarchy.Access → memctrl.Controller.Enqueue/Tick under every
// scheduler → core.DBP.Quantum on the samples the FR-FCFS replay recorded.
func replayLayers(cfg dbpsim.Config, members []string, seeds []int64, r *report) error {
	n := len(members)
	cfg.Cores = n
	sp := r.spans.start("replay", 0)
	defer r.spans.end(sp)

	// trace
	items := make([][]trace.Item, n)
	t0 := time.Now()
	for i, name := range members {
		spec, ok := dbpsim.BenchByName(name)
		if !ok {
			return fmt.Errorf("unknown benchmark %s", name)
		}
		gen := spec.New(seeds[i])
		items[i] = make([]trace.Item, replayItems)
		for k := range items[i] {
			items[i][k] = gen.Next()
		}
	}
	r.layer["trace.next_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n*replayItems)

	// paging
	mapper := addr.NewMapperScheme(cfg.Geometry, cfg.Mapping)
	alloc := paging.NewAllocator(mapper)
	paddrs := make([][]uint64, n)
	t0 = time.Now()
	for i := range members {
		pt := paging.NewPageTable(mapper, alloc)
		paddrs[i] = make([]uint64, replayItems)
		for k, it := range items[i] {
			pa, _, err := pt.Translate(it.Addr)
			if err != nil {
				return err
			}
			paddrs[i][k] = pa
		}
	}
	r.layer["paging.translate_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n*replayItems)

	// cache: a 4-wide core retires gap+1 instructions per item, so an op's
	// offer time is the instructions before it over 4 × the clock ratio.
	ops := make([][]memOp, n)
	instructions := make([]uint64, n)
	var accessNS int64
	for i := range members {
		hier, err := cache.NewHierarchy(cfg.L1, cfg.L2)
		if err != nil {
			return err
		}
		var instr uint64
		t0 := time.Now()
		for k, it := range items[i] {
			out, _ := hier.Access(paddrs[i][k], it.IsWrite)
			instr += uint64(it.Gap) + 1
			for _, op := range out {
				ops[i] = append(ops[i], memOp{MemoryOp: op, at: instr / uint64(4*cfg.CPUClockRatio)})
			}
		}
		accessNS += time.Since(t0).Nanoseconds()
		instructions[i] = instr
	}
	r.layer["cache.access_ns"] = float64(accessNS) / float64(n*replayItems)

	// memctrl under every scheduler
	for _, kind := range replaySchedulers {
		ns, _, err := replayController(cfg, mapper, kind, ops, false)
		if err != nil {
			return err
		}
		r.layer["memctrl.tick_ns."+kind] = ns
	}
	_, st, err := replayController(cfg, mapper, "frfcfs", ops, true)
	if err != nil {
		return err
	}
	r.layer["memctrl.queue_depth_mean"] = st.depthMean
	samples := st.samples(instructions, ops)

	// DBP
	d, err := core.New(cfg.DBP, n, cfg.Geometry)
	if err != nil {
		return err
	}
	const calls = 2000
	t0 = time.Now()
	for k := 0; k < calls; k++ {
		d.Quantum(samples)
	}
	r.layer["core.quantum_us"] = float64(time.Since(t0).Nanoseconds()) / calls / 1e3
	return nil
}

// replayStats is what the sampled FR-FCFS replay records.
type replayStats struct {
	depthMean float64
	perThread []memctrl.ThreadStats
	blp, mlp  []float64 // mean distinct banks / pages with outstanding reads
}

// samples turns the replay into the per-thread profile DBP consumes.
func (st replayStats) samples(instructions []uint64, ops [][]memOp) []profile.ThreadSample {
	out := make([]profile.ThreadSample, len(instructions))
	for t := range out {
		var misses uint64
		for _, op := range ops[t] {
			if op.Demand {
				misses++
			}
		}
		ts := st.perThread[t]
		s := profile.ThreadSample{
			Thread: t, Instructions: instructions[t], Misses: misses,
			Requests: ts.Arrivals, ReadsServed: ts.ReadsServed, WritesServed: ts.WritesServed,
			RowHits: ts.RowHits, BLP: st.blp[t], MLP: st.mlp[t],
		}
		if instructions[t] > 0 {
			s.MPKI = 1000 * float64(misses) / float64(instructions[t])
		}
		if served := ts.ReadsServed + ts.WritesServed; served > 0 {
			s.RBL = float64(ts.RowHits) / float64(served)
		}
		out[t] = s
	}
	return out
}

// replayController feeds every thread's ops into per-channel controllers
// at their offer times (retrying when a queue is full) and ticks until all
// are served. It returns nanoseconds per controller tick, enqueues
// included. With sample set it also records queue depth, per-thread
// service and bank/page parallelism, and its timing is not meaningful.
func replayController(cfg dbpsim.Config, mapper *addr.Mapper, kind string, ops [][]memOp, sample bool) (float64, replayStats, error) {
	var st replayStats
	s, err := newScheduler(kind, cfg)
	if err != nil {
		return 0, st, err
	}
	ctrls := make([]*memctrl.Controller, cfg.Geometry.Channels)
	for ch := range ctrls {
		channel, err := dram.NewChannel(cfg.Geometry.RanksPerChannel, cfg.Geometry.BanksPerRank, cfg.Timing)
		if err != nil {
			return 0, st, err
		}
		ctrls[ch], err = memctrl.NewController(ch, channel, mapper, s, cfg.Ctrl, len(ops))
		if err != nil {
			return 0, st, err
		}
	}
	next := make([]int, len(ops))
	remaining := 0
	for _, o := range ops {
		remaining += len(o)
	}
	n := len(ops)
	var depthSum, samplesTaken float64
	blpSum := make([]float64, n)
	mlpSum := make([]float64, n)
	banks := make([]map[int]bool, n)
	pages := make([]map[uint64]bool, n)
	const maxCycles = 50_000_000
	var cycle uint64
	t0 := time.Now()
	for ; cycle < maxCycles; cycle++ {
		for t := range ops {
			if next[t] >= len(ops[t]) || ops[t][next[t]].at > cycle {
				continue
			}
			op := ops[t][next[t]]
			ch := mapper.Decode(op.Addr).Channel
			if ctrls[ch].Submit(memctrl.Request{Thread: t, Addr: op.Addr, IsWrite: op.IsWrite, Demand: op.Demand}) {
				next[t]++
				remaining--
			}
		}
		busy := false
		for _, c := range ctrls {
			c.Tick()
			if c.QueuedReads()+c.QueuedWrites() > 0 || c.HasOutstandingReads() {
				busy = true
			}
		}
		if sample && cycle%16 == 0 {
			samplesTaken++
			for t := range banks {
				banks[t], pages[t] = map[int]bool{}, map[uint64]bool{}
			}
			for _, c := range ctrls {
				depthSum += float64(c.QueuedReads() + c.QueuedWrites())
				c.ForEachOutstandingRead(func(thread, bank int, page uint64) {
					banks[thread][bank] = true
					pages[thread][page] = true
				})
			}
			for t := range banks {
				blpSum[t] += float64(len(banks[t]))
				mlpSum[t] += float64(len(pages[t]))
			}
		}
		if remaining == 0 && !busy {
			break
		}
	}
	elapsed := time.Since(t0)
	if cycle == maxCycles {
		return 0, st, fmt.Errorf("controller replay under %s did not drain in %d cycles", kind, maxCycles)
	}
	if sample {
		st.depthMean = depthSum / samplesTaken / float64(len(ctrls))
		st.perThread = make([]memctrl.ThreadStats, n)
		st.blp, st.mlp = make([]float64, n), make([]float64, n)
		for t := 0; t < n; t++ {
			st.blp[t] = blpSum[t] / samplesTaken
			st.mlp[t] = mlpSum[t] / samplesTaken
		}
		for _, c := range ctrls {
			for t, ts := range c.PerThread() {
				p := &st.perThread[t]
				p.Arrivals += ts.Arrivals
				p.ReadsServed += ts.ReadsServed
				p.WritesServed += ts.WritesServed
				p.RowHits += ts.RowHits
			}
		}
	}
	ticks := float64(cycle+1) * float64(len(ctrls))
	return float64(elapsed.Nanoseconds()) / ticks, st, nil
}
