package memctrl_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dbpsim/internal/addr"
	"dbpsim/internal/dram"
	"dbpsim/internal/memctrl"
	"dbpsim/internal/profile"
	"dbpsim/internal/sched"
)

// The differential selection oracle: one controller selects through its
// cached per-bank heads (Tick), a twin re-ranks its whole queue every cycle
// (TickReference, the full scan the heads replaced). Both see the same
// randomized stream of enqueues, scheduler re-rankings and priority-level
// changes; their complete state — queues, in-flight reads, bank timing and
// command counters — must stay identical after every cycle.

const oracleThreads = 4

// oracleStack is one scheduler configuration: the scheduler the controller
// sees, plus every stateful component under it (for feeding quantum
// updates).
type oracleStack struct {
	top   memctrl.Scheduler
	parts []memctrl.Scheduler
}

// staleTCM announces no rank change ever: the oracle must catch it.
type staleTCM struct{ *sched.TCM }

func (staleTCM) PriorityEpoch() uint64 { return 0 }

func mustTCM(rankOverHit bool) *sched.TCM {
	cfg := sched.DefaultTCMConfig(oracleThreads)
	cfg.ShuffleInterval = 97
	cfg.RankOverRowHit = rankOverHit
	t, err := sched.NewTCM(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// oracleCases builds a fresh stack per call, so the production and
// reference controllers never share scheduler state.
var oracleCases = []struct {
	name  string
	build func() oracleStack
}{
	{"fcfs", func() oracleStack { s := sched.NewFCFS(); return oracleStack{s, nil} }},
	{"frfcfs", func() oracleStack { s := sched.NewFRFCFS(); return oracleStack{s, nil} }},
	{"tcm", func() oracleStack { s := mustTCM(false); return oracleStack{s, []memctrl.Scheduler{s}} }},
	{"tcm-rank-over-hit", func() oracleStack { s := mustTCM(true); return oracleStack{s, []memctrl.Scheduler{s}} }},
	{"atlas", func() oracleStack {
		s := must(sched.NewATLAS(oracleThreads, 0.875))
		return oracleStack{s, []memctrl.Scheduler{s}}
	}},
	{"parbs", func() oracleStack { s := must(sched.NewPARBS(2)); return oracleStack{s, []memctrl.Scheduler{s}} }},
	{"bliss", func() oracleStack { s := must(sched.NewBLISS(3, 211)); return oracleStack{s, []memctrl.Scheduler{s}} }},
	{"frfcfs-cap", func() oracleStack { s := must(sched.NewFRFCFSCap(2)); return oracleStack{s, []memctrl.Scheduler{s}} }},
	{"prio+frfcfs", func() oracleStack {
		p := sched.NewThreadPriority(sched.NewFRFCFS(), oracleThreads)
		return oracleStack{p, []memctrl.Scheduler{p}}
	}},
	{"prio+tcm", func() oracleStack {
		t := mustTCM(false)
		p := sched.NewThreadPriority(t, oracleThreads)
		return oracleStack{p, []memctrl.Scheduler{p, t}}
	}},
	{"prio+parbs", func() oracleStack {
		s := must(sched.NewPARBS(2))
		p := sched.NewThreadPriority(s, oracleThreads)
		return oracleStack{p, []memctrl.Scheduler{p, s}}
	}},
	{"prio+bliss", func() oracleStack {
		s := must(sched.NewBLISS(3, 211))
		p := sched.NewThreadPriority(s, oracleThreads)
		return oracleStack{p, []memctrl.Scheduler{p, s}}
	}},
}

// oracleConfigs vary the controller paths selection interacts with.
var oracleConfigs = []struct {
	name    string
	refresh bool
	cfg     func() memctrl.Config
}{
	{"open-page", true, func() memctrl.Config {
		c := memctrl.DefaultConfig()
		c.StarvationThreshold = 400
		return c
	}},
	{"closed-page-timeout", true, func() memctrl.Config {
		c := memctrl.DefaultConfig()
		c.StarvationThreshold = 250
		c.ClosedPage = true
		c.RowTimeout = 60
		return c
	}},
	{"small-queues", false, func() memctrl.Config {
		return memctrl.Config{ReadQueueCap: 12, WriteQueueCap: 10, WriteHighWatermark: 8, WriteLowWatermark: 2}
	}},
}

func oracleController(t *testing.T, s memctrl.Scheduler, cfg memctrl.Config, refresh bool) *memctrl.Controller {
	t.Helper()
	g := addr.DefaultGeometry()
	g.Channels, g.RanksPerChannel = 1, 2
	tm := dram.DDR3_1600()
	tm.RefreshEnabled = refresh
	if refresh {
		tm.TREFI = 900 // several refreshes per stream
	}
	ch, err := dram.NewChannel(g.RanksPerChannel, g.BanksPerRank, tm)
	if err != nil {
		t.Fatal(err)
	}
	c, err := memctrl.NewController(0, ch, addr.NewMapper(g), s, cfg, oracleThreads)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// feedQuantum hands every component the same quantum update: fresh
// profiles for ranking schedulers, fresh levels for priority wrappers.
func feedQuantum(parts []memctrl.Scheduler, samples []profile.ThreadSample, levels []int) {
	for _, p := range parts {
		switch p := p.(type) {
		case interface {
			UpdateQuantum([]profile.ThreadSample)
		}:
			p.UpdateQuantum(samples)
		case *sched.ThreadPriority:
			for th, l := range levels {
				p.SetLevel(th, l)
			}
		}
	}
}

// roundTrip snapshots the controller and its scheduler, then restores both
// in place, the way a checkpoint resume does: the scheduler's bytes restore
// with no help from the controller's rebuilt requests.
func roundTrip(c *memctrl.Controller, s memctrl.Scheduler) error {
	st, err := s.Snapshot()
	if err != nil {
		return err
	}
	if err := c.Restore(c.Snapshot()); err != nil {
		return err
	}
	return s.Restore(st)
}

// runOracle drives a production and a reference controller through one
// randomized stream and returns the first cycle at which their states
// differ (-1 when they never do), with a description of the difference.
func runOracle(t *testing.T, build func() oracleStack, cfg memctrl.Config, refresh bool, seed int64, cycles int, restoreEvery int) (int, string) {
	t.Helper()
	prod, ref := build(), build()
	pc := oracleController(t, prod.top, cfg, refresh)
	rc := oracleController(t, ref.top, cfg, refresh)
	g := addr.DefaultGeometry()
	g.Channels, g.RanksPerChannel = 1, 2
	m := addr.NewMapper(g)
	rng := rand.New(rand.NewSource(seed))
	samples := make([]profile.ThreadSample, oracleThreads)
	levels := make([]int, oracleThreads)
	// checkDerived compares the production controller's memoised NextEvent
	// with a fresh computation and checks that no head its not-before bound
	// passes over could issue now.
	checkDerived := func(when string) string {
		if got, want := pc.NextEvent(), pc.NextEventFresh(); got != want {
			return fmt.Sprintf("%s: memoised NextEvent %d, fresh %d (now %d)", when, got, want, pc.Now())
		}
		if q, b := pc.SkippedReadyHead(); b >= 0 {
			return fmt.Sprintf("%s: %s bank %d's head is ready but its not-before bound skips it (now %d)", when, q, b, pc.Now())
		}
		return ""
	}
	for cycle := 0; cycle < cycles; cycle++ {
		if diff := checkDerived("before enqueue"); diff != "" {
			return cycle, diff
		}
		// Alternating busy and quiet phases move the queues between empty
		// and full; a few rows per bank give both hits and conflicts.
		if cycle/500%3 != 2 && rng.Intn(4) == 0 {
			loc := addr.Location{Rank: rng.Intn(2), Bank: rng.Intn(8), Row: rng.Intn(3), Column: rng.Intn(64)}
			r := memctrl.Request{Thread: rng.Intn(oracleThreads), Addr: m.Encode(loc), IsWrite: rng.Intn(6) == 0, Demand: true}
			if okP, okR := pc.Submit(r), rc.Submit(r); okP != okR {
				return cycle, fmt.Sprintf("enqueue accepted=%v by the heads, %v by the reference", okP, okR)
			}
		}
		if cycle%211 == 0 {
			for th := range samples {
				samples[th] = profile.ThreadSample{Thread: th, MPKI: rng.Float64() * 40, BLP: rng.Float64() * 4,
					RBL: rng.Float64(), ReadsServed: uint64(rng.Intn(300)), WritesServed: uint64(rng.Intn(100))}
				levels[th] = rng.Intn(2)
			}
			feedQuantum(prod.parts, samples, levels)
			feedQuantum(ref.parts, samples, levels)
		}
		if restoreEvery > 0 && cycle%restoreEvery == restoreEvery-1 {
			if err := roundTrip(pc, prod.top); err != nil {
				t.Fatalf("snapshot/restore at cycle %d: %v", cycle, err)
			}
		}
		if diff := checkDerived("before tick"); diff != "" {
			return cycle, diff
		}
		pc.Tick()
		rc.TickReference()
		if ps, rs := pc.Snapshot(), rc.Snapshot(); !reflect.DeepEqual(ps, rs) {
			return cycle, fmt.Sprintf("DRAM commands %+v (heads) vs %+v (reference); queued reads %d vs %d, writes %d vs %d",
				ps.Channel.Stats, rs.Channel.Stats, len(ps.ReadQ), len(rs.ReadQ), len(ps.WriteQ), len(rs.WriteQ))
		}
	}
	return -1, ""
}

// TestSelectionMatchesFullScan is the differential oracle: for every
// in-tree scheduler (and the priority wrapper over FR-FCFS, TCM, PAR-BS and
// BLISS), every controller configuration, and streams with and without
// mid-stream Snapshot/Restore, the cached per-bank heads issue exactly the
// command sequence a full re-ranking issues. On every cycle it also checks
// the production controller's derived state: the memoised NextEvent equals
// a fresh computation, and no head skipped by its not-before bound was
// ready.
func TestSelectionMatchesFullScan(t *testing.T) {
	cycles := 6000
	if testing.Short() {
		cycles = 2000
	}
	for _, sc := range oracleCases {
		for _, cc := range oracleConfigs {
			for _, restoreEvery := range []int{0, 733} {
				sc, cc, restoreEvery := sc, cc, restoreEvery
				t.Run(fmt.Sprintf("%s/%s/restore=%d", sc.name, cc.name, restoreEvery), func(t *testing.T) {
					t.Parallel()
					if at, diff := runOracle(t, sc.build, cc.cfg(), cc.refresh, 7, cycles, restoreEvery); at >= 0 {
						t.Fatalf("selection diverged from the full scan at cycle %d: %s", at, diff)
					}
				})
			}
		}
	}
}

// TestOracleCatchesStaleHeads checks the oracle's own sensitivity: a TCM
// that never announces its shuffles leaves stale heads behind, and the
// comparison must notice.
func TestOracleCatchesStaleHeads(t *testing.T) {
	build := func() oracleStack { s := mustTCM(false); return oracleStack{staleTCM{s}, []memctrl.Scheduler{s}} }
	if at, _ := runOracle(t, build, oracleConfigs[0].cfg(), true, 7, 6000, 0); at < 0 {
		t.Fatal("a scheduler hiding its rank changes went unnoticed by the oracle")
	}
}
