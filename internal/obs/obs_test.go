package obs

import (
	"strings"
	"testing"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	// Every hook must be a no-op on the disabled (nil) recorder.
	r.OnEnqueue(0, false)
	r.OnActivate(0, 3)
	r.OnColumn(0, 3, true)
	r.OnComplete(0, 1, 10, 50, true)
	r.OnEpoch(1000, 250, []EpochThread{{Served: 1}})
	r.OnRepartition(1000, 250, []int{4, 4})
	if r.Counters() != nil || r.Epochs() != nil || r.Spans() != nil || r.Repartitions() != nil {
		t.Error("nil recorder returned non-nil data")
	}
	if r.NumThreads() != 0 {
		t.Error("nil recorder reports threads")
	}
	if err := r.WriteEpochCSV(&strings.Builder{}); err != nil {
		t.Errorf("nil WriteEpochCSV: %v", err)
	}
	if err := r.WriteTrace(&strings.Builder{}); err == nil {
		t.Error("nil WriteTrace must error (no data to export)")
	}
}

// TestNilHooksDoNotAllocate pins the "free when disabled" contract: the
// hot-path hooks on a nil recorder must not allocate at all.
func TestNilHooksDoNotAllocate(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.OnEnqueue(0, false)
		r.OnActivate(0, 1)
		r.OnColumn(0, 1, false)
		r.OnComplete(0, 0, 1, 2, false)
	})
	if allocs != 0 {
		t.Errorf("nil hooks allocate %.1f times per call set, want 0", allocs)
	}
}

func BenchmarkHooksDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.OnEnqueue(0, false)
		r.OnActivate(0, 1)
		r.OnColumn(0, 1, false)
		r.OnComplete(0, 0, uint64(i), uint64(i+40), false)
	}
}

func BenchmarkHooksEnabled(b *testing.B) {
	r, err := NewRecorder(Options{NumThreads: 8, NumBanks: 16, Spans: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.OnEnqueue(i&7, false)
		r.OnActivate(i&7, i&15)
		r.OnColumn(i&7, i&15, false)
		r.OnComplete(i&7, i&1, uint64(i), uint64(i+40), false)
	}
}

func TestNewRecorderValidates(t *testing.T) {
	if _, err := NewRecorder(Options{NumThreads: 0, NumBanks: 8}); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := NewRecorder(Options{NumThreads: 2, NumBanks: 0}); err == nil {
		t.Error("zero banks accepted")
	}
}

func TestRecorderCountsAndOccupancy(t *testing.T) {
	r, err := NewRecorder(Options{NumThreads: 2, NumBanks: 4, Spans: true})
	if err != nil {
		t.Fatal(err)
	}
	// Thread 0 touches banks 0 and 1; thread 1 touches bank 3.
	r.OnEnqueue(0, false)
	r.OnEnqueue(0, true)
	r.OnEnqueue(1, false)
	r.OnActivate(0, 0)
	r.OnColumn(0, 0, false)
	r.OnColumn(0, 1, false)
	r.OnColumn(1, 3, true)
	r.OnComplete(0, 0, 10, 60, false)

	threads := []EpochThread{{Served: 2}, {Served: 1}}
	r.OnEpoch(1000, 250, threads)

	c := r.Counters()
	want := map[string]uint64{
		CounterEnqueues:     3,
		CounterActivates:    1,
		CounterColumnReads:  2,
		CounterColumnWrites: 1,
		CounterCompletions:  1,
		CounterEpochs:       1,
	}
	for name, v := range want {
		if c[name] != v {
			t.Errorf("%s = %d, want %d", name, c[name], v)
		}
	}

	eps := r.Epochs()
	if len(eps) != 1 {
		t.Fatalf("epochs = %d", len(eps))
	}
	e := eps[0]
	if e.Index != 0 || e.Cycle != 1000 || e.MemCycle != 250 {
		t.Errorf("epoch header = %+v", e)
	}
	// 3 of 4 banks saw column/activate traffic.
	if e.BankOccupancy != 0.75 {
		t.Errorf("bank occupancy = %g, want 0.75", e.BankOccupancy)
	}
	if e.Threads[0].BanksTouched != 2 || e.Threads[1].BanksTouched != 1 {
		t.Errorf("banks touched = %d, %d", e.Threads[0].BanksTouched, e.Threads[1].BanksTouched)
	}

	// The next epoch starts from clean marks.
	r.OnColumn(1, 2, false)
	r.OnEpoch(2000, 500, []EpochThread{{}, {}})
	e2 := r.Epochs()[1]
	if e2.BankOccupancy != 0.25 {
		t.Errorf("second-epoch occupancy = %g, want 0.25", e2.BankOccupancy)
	}
	if e2.Threads[0].BanksTouched != 0 || e2.Threads[1].BanksTouched != 1 {
		t.Errorf("second-epoch banks touched = %+v", e2.Threads)
	}

	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d", len(spans))
	}
	if s := spans[0]; s.Thread != 0 || s.Channel != 0 || s.Arrival != 10 || s.End != 60 || s.RowHit {
		t.Errorf("span = %+v", s)
	}
}

func TestSpanCapDropsNotGrows(t *testing.T) {
	r, err := NewRecorder(Options{NumThreads: 1, NumBanks: 1, Spans: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = DefaultMaxSpans + 3
	for i := 0; i < n; i++ {
		r.OnComplete(0, 0, uint64(i), uint64(i+10), false)
	}
	if len(r.Spans()) != DefaultMaxSpans {
		t.Errorf("spans = %d, want capped at %d", len(r.Spans()), DefaultMaxSpans)
	}
	if got := r.Counters()[CounterDropped]; got != 3 {
		t.Errorf("dropped = %d, want 3", got)
	}
	if got := r.Counters()[CounterCompletions]; got != n {
		t.Errorf("completions = %d, want %d (counting continues past the cap)", got, n)
	}
}

func TestSpansDisabledRecordsNoSpans(t *testing.T) {
	r, err := NewRecorder(Options{NumThreads: 1, NumBanks: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.OnComplete(0, 0, 1, 2, false)
	if len(r.Spans()) != 0 {
		t.Errorf("spans recorded with Spans disabled: %d", len(r.Spans()))
	}
	if r.Counters()[CounterCompletions] != 1 {
		t.Error("completion counter must still advance")
	}
}

func TestEpochCSV(t *testing.T) {
	r, err := NewRecorder(Options{NumThreads: 2, NumBanks: 2})
	if err != nil {
		t.Fatal(err)
	}
	r.OnColumn(0, 0, false)
	r.OnEpoch(500, 125, []EpochThread{
		{Served: 4, RowHitRate: 0.5, IPC: 1.25, Banks: 1, SlowdownEst: 1},
		{Served: 0, Banks: 1},
	})
	var b strings.Builder
	if err := r.WriteEpochCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2 rows:\n%s", len(lines), b.String())
	}
	if !strings.HasPrefix(lines[0], "epoch,cycle,mem_cycle,bank_occupancy,thread,") {
		t.Errorf("header = %q", lines[0])
	}
	if want := "0,500,125,0.5000,0,4,0.5000,1.2500,1,1,1.0000,,false"; lines[1] != want {
		t.Errorf("row = %q, want %q", lines[1], want)
	}
}
