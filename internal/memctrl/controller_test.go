package memctrl

import (
	"testing"

	"dbpsim/internal/addr"
	"dbpsim/internal/dram"
)

// frfcfs is a local row-hit-first scheduler (the real one lives in package
// sched, which depends on this package).
type frfcfs struct{}

func (frfcfs) Name() string { return "frfcfs" }
func (frfcfs) Less(ctx SchedContext, a, b *Request) bool {
	ha, hb := ctx.RowHit(a), ctx.RowHit(b)
	if ha != hb {
		return ha
	}
	return a.ID < b.ID
}
func (frfcfs) OnTick(uint64)               {}
func (frfcfs) NextTickEvent(uint64) uint64 { return NeverEvent }
func (frfcfs) PriorityEpoch() uint64       { return 0 }
func (frfcfs) OnEnqueue(*Request)          {}
func (frfcfs) OnService(*Request)          {}
func (frfcfs) Snapshot() ([]byte, error)   { return nil, nil }
func (frfcfs) Restore([]byte) error        { return nil }

func testSetup(t *testing.T, refresh bool) (*Controller, *addr.Mapper) {
	t.Helper()
	g := addr.DefaultGeometry()
	m := addr.NewMapper(g)
	tm := dram.DDR3_1600()
	tm.RefreshEnabled = refresh
	ch, err := dram.NewChannel(g.RanksPerChannel, g.BanksPerRank, tm)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(0, ch, m, frfcfs{}, DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	return c, m
}

// addrFor builds a physical address on channel 0 with the given bank/row.
func addrFor(m *addr.Mapper, bank, row, col int) uint64 {
	return m.Encode(addr.Location{Channel: 0, Rank: 0, Bank: bank, Row: row, Column: col})
}

// sink is a test event sink: it keeps a copy of every completed read in
// completion order (the controller recycles pooled requests after the
// call).
type sink struct{ done []Request }

func (*sink) Enqueued(*Request)                                           {}
func (*sink) Command(dram.Command, int, int, int, *Request, bool, uint64) {}
func (s *sink) Completed(r *Request, _ uint64)                            { s.done = append(s.done, *r) }

// watch installs a fresh test sink on c.
func watch(c *Controller) *sink {
	s := &sink{}
	c.SetEvents(s)
	return s
}

// completed returns a runUntil condition: n reads have completed.
func (s *sink) completed(n int) func() bool { return func() bool { return len(s.done) >= n } }

func runUntil(c *Controller, maxCycles int, done func() bool) int {
	for i := 0; i < maxCycles; i++ {
		if done() {
			return i
		}
		c.Tick()
	}
	return maxCycles
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.ReadQueueCap = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero read cap accepted")
	}
	bad = DefaultConfig()
	bad.WriteHighWatermark = bad.WriteQueueCap + 1
	if err := bad.Validate(); err == nil {
		t.Error("high watermark above cap accepted")
	}
	bad = DefaultConfig()
	bad.WriteLowWatermark = bad.WriteHighWatermark
	if err := bad.Validate(); err == nil {
		t.Error("low >= high accepted")
	}
}

func TestNewControllerErrors(t *testing.T) {
	g := addr.DefaultGeometry()
	m := addr.NewMapper(g)
	tm := dram.DDR3_1600()
	ch, _ := dram.NewChannel(1, 8, tm)
	if _, err := NewController(0, ch, m, nil, DefaultConfig(), 4); err == nil {
		t.Error("nil scheduler accepted")
	}
	if _, err := NewController(0, ch, m, frfcfs{}, DefaultConfig(), 0); err == nil {
		t.Error("zero threads accepted")
	}
	bad := DefaultConfig()
	bad.ReadQueueCap = -1
	if _, err := NewController(0, ch, m, frfcfs{}, bad, 4); err == nil {
		t.Error("bad config accepted")
	}
}

func TestSingleReadLatency(t *testing.T) {
	c, m := testSetup(t, false)
	tm := dram.DDR3_1600()
	ev := watch(c)
	r := &Request{Thread: 0, Addr: addrFor(m, 0, 5, 0), Demand: true}
	if !c.Enqueue(r) {
		t.Fatal("enqueue failed")
	}
	cycles := runUntil(c, 1000, ev.completed(1))
	// Idle-bank read: ACT at 0, RD at tRCD, data at tRCD+CL+TBL, completion
	// observed on the following tick.
	want := tm.TRCD + tm.CL + tm.TBL + 1
	if cycles != want {
		t.Errorf("read completed after %d cycles, want %d", cycles, want)
	}
	st := c.PerThread()[0]
	if st.ReadsServed != 1 || st.Arrivals != 1 {
		t.Errorf("per-thread stats = %+v", st)
	}
	if st.RowHits != 0 {
		t.Errorf("idle-bank read counted as row hit")
	}
}

func TestRowHitFasterAndCounted(t *testing.T) {
	c, m := testSetup(t, false)
	ev := watch(c)
	mk := func(row, col int) *Request {
		return &Request{Thread: 0, Addr: addrFor(m, 0, row, col)}
	}
	c.Enqueue(mk(5, 0))
	c.Enqueue(mk(5, 1)) // same row: row hit
	runUntil(c, 2000, ev.completed(2))
	st := c.PerThread()[0]
	if st.ReadsServed != 2 {
		t.Fatalf("ReadsServed = %d", st.ReadsServed)
	}
	if st.RowHits != 1 {
		t.Errorf("RowHits = %d, want 1", st.RowHits)
	}
}

func TestRowConflictPrecharges(t *testing.T) {
	c, m := testSetup(t, false)
	ev := watch(c)
	c.Enqueue(&Request{Thread: 0, Addr: addrFor(m, 0, 5, 0)})
	runUntil(c, 2000, ev.completed(1))
	// New request to a different row of the same bank: needs PRE+ACT.
	c.Enqueue(&Request{Thread: 1, Addr: addrFor(m, 0, 9, 0)})
	runUntil(c, 2000, ev.completed(2))
	ds := c.DRAMStats()
	if ds.Precharges != 1 || ds.Activates != 2 {
		t.Errorf("dram stats = %+v", ds)
	}
	if c.PerThread()[1].RowHits != 0 {
		t.Error("conflict counted as row hit")
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	c, m := testSetup(t, false)
	ev := watch(c)
	// Each request's column is its id.
	mk := func(id, bank, row int) *Request {
		return &Request{Thread: 0, Addr: addrFor(m, bank, row, id)}
	}
	// Open row 5 on bank 0.
	c.Enqueue(mk(0, 0, 5))
	runUntil(c, 2000, ev.completed(1))
	// Older conflict on bank 0 vs newer row hit on bank 0.
	c.Enqueue(mk(1, 0, 9))
	c.Enqueue(mk(2, 0, 5))
	runUntil(c, 4000, ev.completed(3))
	var order []int
	for _, r := range ev.done {
		order = append(order, r.Loc.Column)
	}
	if len(order) != 3 || order[1] != 2 || order[2] != 1 {
		t.Errorf("service order = %v, want row hit (2) before conflict (1)", order)
	}
}

func TestReadsPriorityOverQueuedWrites(t *testing.T) {
	c, m := testSetup(t, false)
	cfg := DefaultConfig()
	tm := dram.DDR3_1600()
	// Fill the write queue below the high watermark; a read arriving at the
	// same time must still see its unloaded latency (reads go first).
	for i := 0; i < cfg.WriteHighWatermark-1; i++ {
		if !c.Enqueue(&Request{Thread: 0, Addr: addrFor(m, i%8, i/8, 0), IsWrite: true}) {
			t.Fatal("write enqueue failed")
		}
	}
	ev := watch(c)
	c.Enqueue(&Request{Thread: 0, Addr: addrFor(m, 0, 3, 0)})
	cycles := runUntil(c, 2000, ev.completed(1))
	want := tm.TRCD + tm.CL + tm.TBL + 1
	if cycles != want {
		t.Errorf("read latency with queued writes = %d, want unloaded %d", cycles, want)
	}
}

func TestWritesDrainAtWatermark(t *testing.T) {
	c, m := testSetup(t, false)
	cfg := DefaultConfig()
	for i := 0; i < cfg.WriteHighWatermark; i++ {
		if !c.Enqueue(&Request{Thread: 0, Addr: addrFor(m, i%8, i/8, 0), IsWrite: true}) {
			t.Fatal("write enqueue failed")
		}
	}
	// At the high watermark the drain must run down to the low watermark
	// even while new reads keep arriving.
	row := 0
	for cycle := 0; cycle < 50000 && c.QueuedWrites() > cfg.WriteLowWatermark; cycle++ {
		if cycle%100 == 0 {
			c.Enqueue(&Request{Thread: 1, Addr: addrFor(m, 1, row%64, 0)})
			row++
		}
		c.Tick()
	}
	if c.QueuedWrites() > cfg.WriteLowWatermark {
		t.Fatalf("drain did not reach low watermark: %d", c.QueuedWrites())
	}
	if got := c.PerThread()[0].WritesServed; got == 0 {
		t.Error("no writes recorded as served")
	}
}

func TestIdleWritesDrainEventually(t *testing.T) {
	c, m := testSetup(t, false)
	c.Enqueue(&Request{Thread: 0, Addr: addrFor(m, 2, 7, 0), IsWrite: true})
	runUntil(c, 2000, func() bool { return c.QueuedWrites() == 0 })
	if c.QueuedWrites() != 0 {
		t.Fatal("lone write never drained with empty read queue")
	}
}

func TestQueueCapacityBackpressure(t *testing.T) {
	c, m := testSetup(t, false)
	cfg := DefaultConfig()
	accepted := 0
	for i := 0; i < cfg.ReadQueueCap+10; i++ {
		if c.Enqueue(&Request{Thread: 0, Addr: addrFor(m, i%8, i, 0)}) {
			accepted++
		}
	}
	if accepted != cfg.ReadQueueCap {
		t.Errorf("accepted %d reads, want %d", accepted, cfg.ReadQueueCap)
	}
}

func TestRefreshMakesProgressUnderLoad(t *testing.T) {
	c, m := testSetup(t, true)
	tm := dram.DDR3_1600()
	ev := watch(c)
	// Keep the controller busy well past several tREFI periods.
	total := 0
	for cycle := 0; cycle < 4*tm.TREFI; cycle++ {
		if cycle%50 == 0 && total < 400 {
			if c.Enqueue(&Request{Thread: 0, Addr: addrFor(m, total%8, total%64, 0)}) {
				total++
			}
		}
		c.Tick()
	}
	if ds := c.DRAMStats(); ds.Refreshes < 3 {
		t.Errorf("refreshes = %d, want ≥3 over 4×tREFI", ds.Refreshes)
	}
	if completed := len(ev.done); completed < total-8 {
		t.Errorf("only %d/%d reads completed under refresh", completed, total)
	}
}

func TestStarvationGuard(t *testing.T) {
	g := addr.DefaultGeometry()
	m := addr.NewMapper(g)
	tm := dram.DDR3_1600()
	tm.RefreshEnabled = false
	ch, err := dram.NewChannel(g.RanksPerChannel, g.BanksPerRank, tm)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.StarvationThreshold = 500
	c, err := NewController(0, ch, m, frfcfs{}, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	ev := watch(c)
	victimDone := func() bool {
		for _, r := range ev.done {
			if r.Thread == 1 {
				return true
			}
		}
		return false
	}
	// The victim (thread 1) wants row 9 of bank 0; a stream of row-5 hits
	// would starve it under pure FR-FCFS.
	c.Enqueue(&Request{Thread: 0, Addr: addrFor(m, 0, 5, 0)})
	c.Enqueue(&Request{Thread: 1, Addr: addrFor(m, 0, 9, 0)})
	col := 1
	for cycle := 0; cycle < 3000 && !victimDone(); cycle++ {
		if c.QueuedReads() < 8 {
			c.Enqueue(&Request{Thread: 0, Addr: addrFor(m, 0, 5, col%64)})
			col++
		}
		c.Tick()
	}
	if !victimDone() {
		t.Error("starvation guard never let the conflict request through")
	}
}

func TestPerThreadAccounting(t *testing.T) {
	c, m := testSetup(t, false)
	ev := watch(c)
	c.Enqueue(&Request{Thread: 2, Addr: addrFor(m, 1, 4, 0)})
	c.Enqueue(&Request{Thread: 3, Addr: addrFor(m, 2, 4, 0)})
	runUntil(c, 2000, ev.completed(2))
	pt := c.PerThread()
	if pt[2].ReadsServed != 1 || pt[3].ReadsServed != 1 || pt[0].ReadsServed != 0 {
		t.Errorf("per-thread reads: %+v", pt)
	}
	if pt[2].QueueCycles == 0 {
		t.Error("queue cycles not accumulated")
	}
	c.ResetPerThreadCounters()
	if c.PerThread()[2].ReadsServed != 0 {
		t.Error("ResetPerThreadCounters failed")
	}
}

func TestForEachOutstandingRead(t *testing.T) {
	c, m := testSetup(t, false)
	c.Enqueue(&Request{Thread: 0, Addr: addrFor(m, 3, 4, 0)})
	c.Enqueue(&Request{Thread: 1, Addr: addrFor(m, 5, 4, 0)})
	type rec struct {
		thread, bank int
		page         uint64
	}
	var got []rec
	c.ForEachOutstandingRead(func(th, bk int, pg uint64) { got = append(got, rec{th, bk, pg}) })
	if len(got) != 2 {
		t.Fatalf("got %d outstanding, want 2", len(got))
	}
	if got[0].thread != 0 || got[0].bank != 3 || got[1].thread != 1 || got[1].bank != 5 {
		t.Errorf("outstanding = %v", got)
	}
	if got[0].page == got[1].page {
		t.Error("distinct requests reported the same page key")
	}
	if want := addrFor(m, 3, 4, 0) >> m.PageShift(); got[0].page != want {
		t.Errorf("page key = %d, want %d", got[0].page, want)
	}
}

func TestAccessors(t *testing.T) {
	c, _ := testSetup(t, false)
	if c.ChannelID() != 0 || c.Scheduler().Name() != "frfcfs" {
		t.Error("accessors wrong")
	}
}

func TestClosedPagePolicy(t *testing.T) {
	g := addr.DefaultGeometry()
	m := addr.NewMapper(g)
	tm := dram.DDR3_1600()
	tm.RefreshEnabled = false
	ch, err := dram.NewChannel(g.RanksPerChannel, g.BanksPerRank, tm)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ClosedPage = true
	c, err := NewController(0, ch, m, frfcfs{}, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	ev := watch(c)
	// Two same-row requests queued together: the first must keep the row
	// open (a hit is pending), the second closes it.
	c.Enqueue(&Request{Thread: 0, Addr: addrFor(m, 0, 5, 0)})
	c.Enqueue(&Request{Thread: 0, Addr: addrFor(m, 0, 5, 1)})
	runUntil(c, 3000, ev.completed(2))
	if len(ev.done) != 2 {
		t.Fatal("requests did not complete")
	}
	if _, open := ch.OpenRow(0, 0); open {
		t.Error("closed-page controller left the row open")
	}
	// One ACT for both (second was a row hit), one implicit precharge.
	ds := c.DRAMStats()
	if ds.Activates != 1 {
		t.Errorf("activates = %d, want 1", ds.Activates)
	}
	if ds.Precharges != 1 {
		t.Errorf("precharges = %d, want 1 (auto)", ds.Precharges)
	}
	if c.PerThread()[0].RowHits != 1 {
		t.Errorf("row hits = %d, want 1", c.PerThread()[0].RowHits)
	}
}

func TestOpenPageKeepsRow(t *testing.T) {
	c, m := testSetup(t, false)
	ev := watch(c)
	c.Enqueue(&Request{Thread: 0, Addr: addrFor(m, 0, 5, 0)})
	runUntil(c, 2000, ev.completed(1))
	row, open := c.ch.OpenRow(0, 0)
	if !open || row != 5 {
		t.Error("open-page controller closed the row")
	}
}

func TestRowTimeoutClosesIdleRows(t *testing.T) {
	g := addr.DefaultGeometry()
	m := addr.NewMapper(g)
	tm := dram.DDR3_1600()
	tm.RefreshEnabled = false
	ch, err := dram.NewChannel(g.RanksPerChannel, g.BanksPerRank, tm)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.RowTimeout = 100
	c, err := NewController(0, ch, m, frfcfs{}, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	ev := watch(c)
	c.Enqueue(&Request{Thread: 0, Addr: addrFor(m, 0, 5, 0)})
	runUntil(c, 2000, ev.completed(1))
	if _, open := ch.OpenRow(0, 0); !open {
		t.Fatal("row closed immediately (timeout too eager)")
	}
	// Idle past the timeout: the row must be closed opportunistically.
	runUntil(c, 300, func() bool { _, open := ch.OpenRow(0, 0); return !open })
	if _, open := ch.OpenRow(0, 0); open {
		t.Error("idle row never closed by the timeout policy")
	}
	// The next conflict then pays only ACT, not PRE+ACT.
	ds := ch.Stats()
	if ds.Precharges != 1 {
		t.Errorf("precharges = %d, want 1 (timeout close)", ds.Precharges)
	}
}

func TestRowTimeoutRespectsPendingHits(t *testing.T) {
	g := addr.DefaultGeometry()
	m := addr.NewMapper(g)
	tm := dram.DDR3_1600()
	tm.RefreshEnabled = false
	ch, _ := dram.NewChannel(g.RanksPerChannel, g.BanksPerRank, tm)
	cfg := DefaultConfig()
	cfg.RowTimeout = 50
	cfg.ReadQueueCap = 4
	c, err := NewController(0, ch, m, frfcfs{}, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Open row 5, then hold a same-row request that can't be served yet by
	// filling... simpler: enqueue a same-row request and tick only a little
	// so it is served as a row hit, proving the timeout didn't close it.
	ev := watch(c)
	c.Enqueue(&Request{Thread: 0, Addr: addrFor(m, 0, 5, 0)})
	runUntil(c, 2000, ev.completed(1))
	for i := 0; i < 60; i++ { // idle just past the timeout window
		c.Tick()
	}
	c.Enqueue(&Request{Thread: 0, Addr: addrFor(m, 0, 5, 1)})
	runUntil(c, 2000, ev.completed(2))
	// The second request arrived after the close: it must be a conflict
	// (activate), proving the timeout fired; row-hit accounting confirms.
	if got := c.PerThread()[0].RowHits; got != 0 {
		t.Errorf("row hits = %d, want 0 (row was closed by timeout)", got)
	}
}
