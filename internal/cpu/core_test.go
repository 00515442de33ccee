package cpu

import (
	"testing"

	"dbpsim/internal/cache"
	"dbpsim/internal/trace"
)

// identityXlate maps virtual addresses to themselves.
type identityXlate struct{}

func (identityXlate) Translate(v uint64) (uint64, bool, error) { return v, false, nil }

// fakeMem records submissions and completes demands after a fixed delay by
// calling DemandDone(tag) on the issuing core, mirroring the real memory
// system's flattened completion path.
type fakeMem struct {
	latency  int
	full     bool
	core     *Core
	inflight []struct {
		at  uint64
		tag uint64
	}
	now     uint64
	submits []struct {
		addr    uint64
		isWrite bool
		demand  bool
	}
}

func (m *fakeMem) Submit(thread int, addr uint64, isWrite, demand bool, tag uint64) bool {
	if m.full {
		return false
	}
	m.submits = append(m.submits, struct {
		addr    uint64
		isWrite bool
		demand  bool
	}{addr, isWrite, demand})
	if demand && tag != 0 {
		m.inflight = append(m.inflight, struct {
			at  uint64
			tag uint64
		}{m.now + uint64(m.latency), tag})
	}
	return true
}

func (m *fakeMem) tick() {
	m.now++
	for i := 0; i < len(m.inflight); {
		if m.now >= m.inflight[i].at {
			m.core.DemandDone(m.inflight[i].tag)
			m.inflight[i] = m.inflight[len(m.inflight)-1]
			m.inflight = m.inflight[:len(m.inflight)-1]
			continue
		}
		i++
	}
}

func testHierarchy(t *testing.T) *cache.Hierarchy {
	t.Helper()
	h, err := cache.NewHierarchy(
		cache.Config{Name: "L1", SizeBytes: 1024, Ways: 2, LineBytes: 64},
		cache.Config{Name: "L2", SizeBytes: 8192, Ways: 4, LineBytes: 64},
	)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func run(t *testing.T, c *Core, m *fakeMem, cycles int) {
	t.Helper()
	m.core = c
	for i := 0; i < cycles; i++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		m.tick()
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.ROBSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero ROB accepted")
	}
	bad = DefaultConfig()
	bad.L2Latency = bad.L1Latency - 1
	if err := bad.Validate(); err == nil {
		t.Error("L2 < L1 accepted")
	}
}

func TestNewRejectsNil(t *testing.T) {
	h := testHierarchy(t)
	gen := trace.NewScripted([]trace.Item{{Gap: 1, Addr: 0}})
	if _, err := New(0, DefaultConfig(), nil, identityXlate{}, h, &fakeMem{}); err == nil {
		t.Error("nil generator accepted")
	}
	if _, err := New(0, DefaultConfig(), gen, nil, h, &fakeMem{}); err == nil {
		t.Error("nil translator accepted")
	}
	if _, err := New(0, DefaultConfig(), gen, identityXlate{}, nil, &fakeMem{}); err == nil {
		t.Error("nil hierarchy accepted")
	}
	if _, err := New(0, DefaultConfig(), gen, identityXlate{}, h, nil); err == nil {
		t.Error("nil memory accepted")
	}
}

func TestComputeBoundIPCApproachesWidth(t *testing.T) {
	// Pure compute (huge gaps, one hot line): IPC should approach Width.
	gen := trace.NewScripted([]trace.Item{{Gap: 399, Addr: 0}})
	m := &fakeMem{latency: 50}
	c, err := New(0, DefaultConfig(), gen, identityXlate{}, testHierarchy(t), m)
	if err != nil {
		t.Fatal(err)
	}
	run(t, c, m, 3000)
	if ipc := c.Stats().IPC(); ipc < 3.5 {
		t.Errorf("compute-bound IPC = %.2f, want near 4", ipc)
	}
}

func TestMissLatencyBoundsIPC(t *testing.T) {
	// Every access misses (huge working set, random): IPC collapses.
	gen := trace.NewRandom(trace.Config{MemRatio: 1, WorkingSetBytes: 1 << 24}, 7)
	m := &fakeMem{latency: 200}
	c, err := New(0, DefaultConfig(), gen, identityXlate{}, testHierarchy(t), m)
	if err != nil {
		t.Fatal(err)
	}
	run(t, c, m, 5000)
	if ipc := c.Stats().IPC(); ipc > 1.0 {
		t.Errorf("memory-bound IPC = %.2f, want well below 1", ipc)
	}
	if c.Stats().DemandMisses == 0 {
		t.Error("no demand misses recorded")
	}
}

func TestMLPOverlapsMisses(t *testing.T) {
	// Independent random misses should overlap: with latency L and MSHRs m,
	// throughput must beat 1 miss per L cycles.
	gen := trace.NewRandom(trace.Config{MemRatio: 1, WorkingSetBytes: 1 << 26}, 3)
	lat := 100
	m := &fakeMem{latency: lat}
	c, err := New(0, DefaultConfig(), gen, identityXlate{}, testHierarchy(t), m)
	if err != nil {
		t.Fatal(err)
	}
	cycles := 20000
	run(t, c, m, cycles)
	misses := int(c.Stats().DemandMisses)
	serial := cycles / lat
	if misses < 3*serial {
		t.Errorf("misses=%d; expected ≥3× the serial bound %d (MLP)", misses, serial)
	}
}

func TestDependentChainSerialises(t *testing.T) {
	gen := trace.NewChase(trace.Config{MemRatio: 1, WorkingSetBytes: 1 << 26}, 3)
	lat := 100
	m := &fakeMem{latency: lat}
	c, err := New(0, DefaultConfig(), gen, identityXlate{}, testHierarchy(t), m)
	if err != nil {
		t.Fatal(err)
	}
	cycles := 20000
	run(t, c, m, cycles)
	misses := int(c.Stats().DemandMisses)
	serial := cycles / lat
	if misses > serial+5 {
		t.Errorf("dependent chase produced %d misses, serial bound %d", misses, serial)
	}
}

func TestMSHRLimitCapsOutstanding(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHRs = 2
	gen := trace.NewRandom(trace.Config{MemRatio: 1, WorkingSetBytes: 1 << 26}, 3)
	m := &fakeMem{latency: 1 << 30} // never completes
	c, err := New(0, cfg, gen, identityXlate{}, testHierarchy(t), m)
	if err != nil {
		t.Fatal(err)
	}
	run(t, c, m, 500)
	var demands int
	for _, s := range m.submits {
		if s.demand {
			demands++
		}
	}
	if demands != 2 {
		t.Errorf("issued %d demand misses with 2 MSHRs", demands)
	}
}

func TestStoresDoNotBlockRetirement(t *testing.T) {
	// All stores, all missing: core should keep retiring (posted writes).
	gen := trace.NewRandom(trace.Config{MemRatio: 1, WriteFrac: 1, WorkingSetBytes: 1 << 26}, 5)
	m := &fakeMem{latency: 1 << 30}
	c, err := New(0, DefaultConfig(), gen, identityXlate{}, testHierarchy(t), m)
	if err != nil {
		t.Fatal(err)
	}
	run(t, c, m, 2000)
	if ipc := c.Stats().IPC(); ipc < 0.5 {
		t.Errorf("store-only IPC = %.2f; stores are blocking", ipc)
	}
	// Store misses appear as posted (non-demand) fills.
	for _, s := range m.submits {
		if s.demand {
			t.Fatal("store generated a demand request")
		}
	}
}

func TestBackpressureRetries(t *testing.T) {
	gen := trace.NewRandom(trace.Config{MemRatio: 1, WorkingSetBytes: 1 << 26}, 9)
	m := &fakeMem{latency: 10, full: true}
	c, err := New(0, DefaultConfig(), gen, identityXlate{}, testHierarchy(t), m)
	if err != nil {
		t.Fatal(err)
	}
	run(t, c, m, 100)
	if c.Stats().SubmitRetries == 0 {
		t.Error("no retries recorded under full memory")
	}
	if len(m.submits) != 0 {
		t.Error("submissions recorded while full")
	}
	// Release the backpressure: the core must make progress again.
	m.full = false
	run(t, c, m, 2000)
	if c.Stats().DemandMisses == 0 {
		t.Error("core never recovered from backpressure")
	}
}

func TestWritebacksReachMemory(t *testing.T) {
	// Write-heavy working set larger than L2 forces dirty evictions.
	gen := trace.NewStream(trace.Config{MemRatio: 1, WriteFrac: 1, WorkingSetBytes: 1 << 20}, 1, 64, 2)
	m := &fakeMem{latency: 5}
	c, err := New(0, DefaultConfig(), gen, identityXlate{}, testHierarchy(t), m)
	if err != nil {
		t.Fatal(err)
	}
	run(t, c, m, 20000)
	var writes int
	for _, s := range m.submits {
		if s.isWrite {
			writes++
		}
	}
	if writes == 0 {
		t.Error("no writebacks reached memory")
	}
}

func TestStatsIPCZeroCycles(t *testing.T) {
	var s Stats
	if s.IPC() != 0 {
		t.Error("IPC with zero cycles should be 0")
	}
}

func TestCoreAccessors(t *testing.T) {
	gen := trace.NewScripted([]trace.Item{{Gap: 1, Addr: 0}})
	m := &fakeMem{latency: 1}
	h := testHierarchy(t)
	c, err := New(7, DefaultConfig(), gen, identityXlate{}, h, m)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID() != 7 || c.Hierarchy() != h {
		t.Error("accessors wrong")
	}
	run(t, c, m, 100)
	if c.Retired() == 0 {
		t.Error("Retired accessor returned 0 after running")
	}
}

func TestPrefetcherReducesDemandMisses(t *testing.T) {
	// A pure streaming workload: the stride prefetcher should convert many
	// demand misses into L2 hits.
	run := func(degree int) uint64 {
		cfg := DefaultConfig()
		cfg.PrefetchDegree = degree
		gen := trace.NewStream(trace.Config{MemRatio: 1, WorkingSetBytes: 1 << 22}, 1, 64, 5)
		m := &fakeMem{latency: 100}
		c, err := New(0, cfg, gen, identityXlate{}, testHierarchy(t), m)
		if err != nil {
			t.Fatal(err)
		}
		m.core = c
		for i := 0; i < 30000; i++ {
			if err := c.Tick(); err != nil {
				t.Fatal(err)
			}
			m.tick()
		}
		if degree > 0 && c.Stats().PrefetchesIssued == 0 {
			t.Fatal("prefetcher never fired on a stream")
		}
		return c.Stats().DemandMisses
	}
	without := run(0)
	with := run(4)
	if with*2 > without {
		t.Errorf("prefetching barely helped: %d misses with vs %d without", with, without)
	}
}

func TestPrefetchConfigValidate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchDegree = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative prefetch degree accepted")
	}
}

// touchXlate is an identity translator that records every Translate call
// and which pages it first-touched.
type touchXlate struct {
	calls  int
	mapped map[uint64]bool
}

func (x *touchXlate) Translate(v uint64) (uint64, bool, error) {
	x.calls++
	page := v >> 12
	fresh := !x.mapped[page]
	x.mapped[page] = true
	return v, fresh, nil
}

// TestNextEventCountsUntranslatedItemAsActive pins the NextEvent contract
// at the MSHR gate: a core whose current load has not been translated yet is
// not idle, because its next Tick first-touch-allocates the page before the
// gate turns it away. Here a gap run ends exactly at the width boundary with
// the only MSHR taken, so the fresh-page load reaches the gate untranslated.
func TestNextEventCountsUntranslatedItemAsActive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHRs = 1
	gen := trace.NewScripted([]trace.Item{
		{Addr: 0x10000},          // load miss: takes the only MSHR
		{Gap: 3, Addr: 0x900000}, // three gaps fill the width, then a fresh page
	})
	x := &touchXlate{mapped: map[uint64]bool{}}
	m := &fakeMem{latency: 1 << 30} // never completes
	c, err := New(0, cfg, gen, x, testHierarchy(t), m)
	if err != nil {
		t.Fatal(err)
	}
	m.core = c
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	if x.calls != 1 {
		t.Fatalf("first Tick translated %d items, want 1", x.calls)
	}
	e, _ := c.NextEvent()
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	if x.calls != 2 || !x.mapped[0x900000>>12] {
		t.Fatalf("second Tick made %d Translate calls in total, want 2 (fresh page mapped: %v)", x.calls, x.mapped[0x900000>>12])
	}
	if e != 1 {
		t.Fatalf("NextEvent before the first-touch Tick = %d, want 1 (active): skipping it would move the page allocation", e)
	}
	// Translated and turned away by the MSHR gate: now the core is idle
	// until the miss completes, and further Ticks do not allocate.
	if e, _ := c.NextEvent(); e != NeverEvent {
		t.Fatalf("NextEvent after the gate = %d, want NeverEvent", e)
	}
}
