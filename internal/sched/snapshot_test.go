package sched

import (
	"fmt"
	"slices"
	"testing"

	"dbpsim/internal/addr"
	"dbpsim/internal/memctrl"
	"dbpsim/internal/profile"
)

// stateQueue is a read queue over two channels whose request IDs repeat
// across channels (IDs are unique only per controller). Its first four
// requests are thread 0's, all on one bank.
func stateQueue() []*memctrl.Request {
	var q []*memctrl.Request
	add := func(id uint64, thread, channel, bank int) {
		q = append(q, &memctrl.Request{ID: id, Thread: thread, Loc: addr.Location{Channel: channel, Bank: bank}})
	}
	for id := uint64(1); id <= 4; id++ {
		add(id, 0, 0, 0)
	}
	for id := uint64(5); id <= 8; id++ {
		add(id, int(id%4), 0, int(id%3))
	}
	for id := uint64(1); id <= 8; id++ {
		add(id, int(id%4), 1, int(id%2))
	}
	return q
}

// stateCtx makes some IDs row hits on both channels, ID 6 among them on
// the bank thread 0 streaks on.
var stateCtx = fakeCtx{hits: map[uint64]bool{2: true, 5: true, 6: true, 7: true}}

// best returns the queue's most preferred request.
func best(s memctrl.Scheduler, q []*memctrl.Request) int {
	b := 0
	for i := range q {
		if s.Less(stateCtx, q[i], q[b]) {
			b = i
		}
	}
	return b
}

// ranking names the queue's requests in the scheduler's order.
func ranking(s memctrl.Scheduler, q []*memctrl.Request) []string {
	q = slices.Clone(q)
	slices.SortFunc(q, func(a, b *memctrl.Request) int {
		switch {
		case s.Less(stateCtx, a, b):
			return -1
		case s.Less(stateCtx, b, a):
			return 1
		}
		return 0
	})
	out := make([]string, len(q))
	for i, r := range q {
		out[i] = fmt.Sprintf("ch%d/%d", r.Loc.Channel, r.ID)
	}
	return out
}

func mustSched[T memctrl.Scheduler](s T, err error) memctrl.Scheduler {
	if err != nil {
		panic(err)
	}
	return s
}

func shortShuffleTCM() memctrl.Scheduler {
	cfg := DefaultTCMConfig(4)
	cfg.ShuffleInterval = 5
	return mustSched(NewTCM(cfg))
}

// TestStateRestoresIntoFreshScheduler is the scheduler side of the
// checkpoint contract: each stateful scheduler's Snapshot bytes, restored
// into a freshly built instance, rank the queue exactly as the original
// does, and both keep picking the same request while the queue drains.
// The fresh instance sees copies of the queued requests (new pointers,
// same channel and ID), as after a controller restore, and gets no other
// help: PAR-BS is restored mid-batch, its marked set non-empty.
func TestStateRestoresIntoFreshScheduler(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() memctrl.Scheduler
	}{
		{"tcm", shortShuffleTCM},
		{"atlas", func() memctrl.Scheduler { return mustSched(NewATLAS(4, 0.875)) }},
		{"parbs", func() memctrl.Scheduler { return mustSched(NewPARBS(2)) }},
		{"bliss", func() memctrl.Scheduler { return mustSched(NewBLISS(3, 1000)) }},
		{"frfcfs-cap", func() memctrl.Scheduler { return mustSched(NewFRFCFSCap(2)) }},
		{"prio+tcm", func() memctrl.Scheduler { return NewThreadPriority(shortShuffleTCM(), 4) }},
		{"prio+parbs", func() memctrl.Scheduler { return NewThreadPriority(mustSched(NewPARBS(2)), 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := tc.build()
			q := stateQueue()
			if u, ok := orig.(interface{ UpdateQuantum([]profile.ThreadSample) }); ok {
				u.UpdateQuantum(tcmSamples())
			}
			if p, ok := orig.(*ThreadPriority); ok {
				p.SetLevel(1, 2)
				p.SetLevel(3, 1)
				if u, ok := p.inner.(*TCM); ok {
					u.UpdateQuantum(tcmSamples())
				}
			}
			for _, r := range q {
				orig.OnEnqueue(r)
			}
			orig.OnTick(6)
			// Thread 0 is served four times running on one bank: BLISS
			// blacklists it and FR-FCFS-cap's bank streak passes the cap.
			// Both ticks shuffle TCM's ranks (interval 5).
			for _, r := range q[:4] {
				orig.OnService(r)
			}
			q = q[4:]
			orig.OnTick(13)
			if p, ok := orig.(*PARBS); ok && p.MarkedCount() == 0 {
				t.Fatal("PAR-BS batch drained before the snapshot; the case must restore mid-batch")
			}

			b, err := orig.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			fresh := tc.build()
			epoch := fresh.PriorityEpoch()
			if err := fresh.Restore(b); err != nil {
				t.Fatal(err)
			}
			if fresh.PriorityEpoch() == epoch {
				t.Error("Restore left the priority epoch unchanged")
			}
			if again, err := fresh.Snapshot(); err != nil || string(again) != string(b) {
				t.Errorf("restored scheduler snapshots to different bytes (err %v)", err)
			}
			copies := make([]*memctrl.Request, len(q))
			for i, r := range q {
				c := *r
				copies[i] = &c
			}
			if got, want := ranking(fresh, copies), ranking(orig, q); !slices.Equal(got, want) {
				t.Fatalf("restored ranking %v, original %v", got, want)
			}
			for now := uint64(14); len(q) > 0; now += 2 {
				i, j := best(orig, q), best(fresh, copies)
				if q[i].ID != copies[j].ID || q[i].Loc.Channel != copies[j].Loc.Channel {
					t.Fatalf("at cycle %d the original serves ch%d/%d, the restored ch%d/%d",
						now, q[i].Loc.Channel, q[i].ID, copies[j].Loc.Channel, copies[j].ID)
				}
				orig.OnService(q[i])
				fresh.OnService(copies[j])
				q = slices.Delete(q, i, i+1)
				copies = slices.Delete(copies, j, j+1)
				orig.OnTick(now)
				fresh.OnTick(now)
			}
		})
	}
}

// TestStatelessSchedulersHaveEmptyState pins the stateless side of the
// contract: FCFS and FR-FCFS snapshot to nothing, restore nothing, and
// refuse state they could not have written.
func TestStatelessSchedulersHaveEmptyState(t *testing.T) {
	for _, s := range []memctrl.Scheduler{NewFCFS(), NewFRFCFS()} {
		b, err := s.Snapshot()
		if err != nil || len(b) != 0 {
			t.Errorf("%s: Snapshot = %d bytes, %v; want none", s.Name(), len(b), err)
		}
		if err := s.Restore(nil); err != nil {
			t.Errorf("%s: Restore(nil) = %v", s.Name(), err)
		}
		tcm, _ := shortShuffleTCM().Snapshot()
		if err := s.Restore(tcm); err == nil {
			t.Errorf("%s: restored a TCM snapshot", s.Name())
		}
	}
}
