package profile

import (
	"math"
	"testing"
)

type fakeCore struct {
	retired uint64
	misses  uint64
}

func (f *fakeCore) Retired() uint64      { return f.retired }
func (f *fakeCore) DemandMisses() uint64 { return f.misses }

type outstanding struct {
	thread, bank int
	page         uint64
}

type fakeCtrl struct {
	outstanding []outstanding
	counters    map[int][5]uint64 // thread → arrivals, reads, writes, hits, queue
	resets      int
}

// setOutstanding replaces the outstanding set the way a controller does:
// every read that leaves is reported departed and every read that joins is
// reported arrived.
func (f *fakeCtrl) setOutstanding(p *Profiler, outs ...outstanding) {
	for _, o := range f.outstanding {
		p.ReadDeparted(o.thread, o.bank, o.page)
	}
	f.outstanding = outs
	for _, o := range outs {
		p.ReadArrived(o.thread, o.bank, o.page)
	}
}

func (f *fakeCtrl) ForEachOutstandingRead(fn func(thread, bank int, page uint64)) {
	for _, o := range f.outstanding {
		fn(o.thread, o.bank, o.page)
	}
}

func (f *fakeCtrl) PerThreadCounters(t int) (a, r, w, h, q uint64) {
	c := f.counters[t]
	return c[0], c[1], c[2], c[3], c[4]
}

func (f *fakeCtrl) ResetPerThreadCounters() { f.resets++ }

func TestBLPSampling(t *testing.T) {
	cores := []CoreSource{&fakeCore{}, &fakeCore{}}
	ctrl := &fakeCtrl{counters: map[int][5]uint64{}}
	p := New(cores, []ControllerSource{ctrl}, 16)

	// Thread 0 keeps 3 banks busy for 2 cycles, then nothing.
	// Thread 1 keeps 1 bank busy for 4 cycles.
	ctrl.setOutstanding(p, outstanding{0, 1, 101}, outstanding{0, 2, 102}, outstanding{0, 3, 103}, outstanding{1, 9, 109})
	p.SampleBLP()
	p.SampleBLP()
	ctrl.setOutstanding(p, outstanding{1, 9, 109})
	p.SampleBLP()
	p.SampleBLP()

	s := p.Quantum()
	if got := s[0].BLP; math.Abs(got-3) > 1e-9 {
		t.Errorf("thread 0 BLP = %g, want 3 (busy cycles only)", got)
	}
	if got := s[1].BLP; math.Abs(got-1) > 1e-9 {
		t.Errorf("thread 1 BLP = %g, want 1", got)
	}
}

func TestRestoreRebuildsOutstandingCounts(t *testing.T) {
	ctrl := &fakeCtrl{counters: map[int][5]uint64{}}
	p := New([]CoreSource{&fakeCore{}}, []ControllerSource{ctrl}, 16)
	ctrl.setOutstanding(p, outstanding{0, 1, 11})
	// A restored controller replaces its queues without reporting arrivals
	// or departures; Restore recounts them.
	ctrl.outstanding = []outstanding{{0, 2, 12}, {0, 3, 13}, {0, 3, 13}}
	if err := p.Restore(p.Snapshot()); err != nil {
		t.Fatal(err)
	}
	p.SampleBLP()
	s := p.Quantum()
	if s[0].BLP != 2 || s[0].MLP != 2 {
		t.Errorf("after Restore BLP, MLP = %g, %g, want 2, 2", s[0].BLP, s[0].MLP)
	}
	if w := p.Walks(); w != 1 {
		t.Errorf("Walks = %d after one Restore, want 1", w)
	}
}

func TestBLPCountsDistinctBanksOnly(t *testing.T) {
	cores := []CoreSource{&fakeCore{}}
	ctrl := &fakeCtrl{counters: map[int][5]uint64{}}
	p := New(cores, []ControllerSource{ctrl}, 16)
	// Four requests on the same bank = BLP 1.
	ctrl.setOutstanding(p, outstanding{0, 5, 105}, outstanding{0, 5, 105}, outstanding{0, 5, 105}, outstanding{0, 5, 105})
	p.SampleBLP()
	s := p.Quantum()
	if s[0].BLP != 1 {
		t.Errorf("BLP = %g, want 1 for same-bank requests", s[0].BLP)
	}
}

func TestBLPIgnoresOutOfRange(t *testing.T) {
	cores := []CoreSource{&fakeCore{}}
	ctrl := &fakeCtrl{counters: map[int][5]uint64{}}
	p := New(cores, []ControllerSource{ctrl}, 4)
	ctrl.setOutstanding(p, outstanding{-1, 2, 1}, outstanding{0, 99, 2}, outstanding{7, 1, 3}, outstanding{0, 2, 4})
	p.SampleBLP()
	s := p.Quantum()
	if s[0].BLP != 1 {
		t.Errorf("BLP = %g, want 1 (only in-range sample counts)", s[0].BLP)
	}
}

func TestQuantumDeltasAndMPKI(t *testing.T) {
	c0 := &fakeCore{retired: 10000, misses: 50}
	ctrl := &fakeCtrl{counters: map[int][5]uint64{0: {60, 40, 10, 25, 4000}}}
	p := New([]CoreSource{c0}, []ControllerSource{ctrl}, 16)

	s := p.Quantum()
	if s[0].Instructions != 10000 || s[0].Misses != 50 {
		t.Fatalf("deltas = %+v", s[0])
	}
	if got := s[0].MPKI; math.Abs(got-5) > 1e-9 {
		t.Errorf("MPKI = %g, want 5", got)
	}
	if got := s[0].RBL; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("RBL = %g, want 0.5 (25 hits / 50 served)", got)
	}
	if got := s[0].AvgQueueCycles; math.Abs(got-100) > 1e-9 {
		t.Errorf("AvgQueueCycles = %g, want 100", got)
	}
	if ctrl.resets != 1 {
		t.Errorf("controller resets = %d, want 1", ctrl.resets)
	}

	// Second quantum: only the new work should appear.
	c0.retired = 12000
	c0.misses = 60
	ctrl.counters[0] = [5]uint64{}
	s = p.Quantum()
	if s[0].Instructions != 2000 || s[0].Misses != 10 {
		t.Errorf("second quantum deltas = %+v", s[0])
	}
	if got := s[0].MPKI; math.Abs(got-5) > 1e-9 {
		t.Errorf("second quantum MPKI = %g", got)
	}
}

func TestQuantumZeroActivity(t *testing.T) {
	p := New([]CoreSource{&fakeCore{}}, []ControllerSource{&fakeCtrl{counters: map[int][5]uint64{}}}, 16)
	s := p.Quantum()
	if s[0].MPKI != 0 || s[0].BLP != 0 || s[0].RBL != 0 || s[0].AvgQueueCycles != 0 {
		t.Errorf("idle quantum produced non-zero profile: %+v", s[0])
	}
}

func TestBLPResetsEachQuantum(t *testing.T) {
	ctrl := &fakeCtrl{counters: map[int][5]uint64{}}
	p := New([]CoreSource{&fakeCore{}}, []ControllerSource{ctrl}, 16)
	ctrl.setOutstanding(p, outstanding{0, 1, 11}, outstanding{0, 2, 12})
	p.SampleBLP()
	p.Quantum()
	// New quantum with no samples: BLP must be 0, not stale.
	s := p.Quantum()
	if s[0].BLP != 0 {
		t.Errorf("stale BLP leaked across quanta: %g", s[0].BLP)
	}
}

func TestMultipleControllersAggregate(t *testing.T) {
	c0 := &fakeCore{retired: 1000, misses: 10}
	a := &fakeCtrl{counters: map[int][5]uint64{0: {5, 3, 1, 2, 30}}}
	b := &fakeCtrl{counters: map[int][5]uint64{0: {7, 2, 0, 3, 20}}}
	p := New([]CoreSource{c0}, []ControllerSource{a, b}, 16)
	// One bank on each controller, same cycle: BLP 2.
	a.setOutstanding(p, outstanding{0, 0, 1})
	b.setOutstanding(p, outstanding{0, 8, 2})
	p.SampleBLP()
	s := p.Quantum()
	if s[0].Requests != 12 || s[0].ReadsServed != 5 || s[0].WritesServed != 1 {
		t.Errorf("aggregation wrong: %+v", s[0])
	}
	if s[0].RowHits != 5 {
		t.Errorf("RowHits = %d", s[0].RowHits)
	}
	if s[0].BLP != 2 {
		t.Errorf("BLP across controllers = %g, want 2", s[0].BLP)
	}
	if math.Abs(s[0].AvgQueueCycles-10) > 1e-9 {
		t.Errorf("AvgQueueCycles = %g, want 10 (50/5 reads)", s[0].AvgQueueCycles)
	}
}
