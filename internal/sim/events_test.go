package sim

import (
	"fmt"
	"testing"

	"dbpsim/internal/dram"
	"dbpsim/internal/memctrl"
)

// commandTap sits in front of one controller's production event sink. It
// passes every event on, counts the command stream per kind, and checks
// that each command carrying a request names a request that is queued or
// in flight on that controller, from the thread that enqueued it, on the
// bank the command targets.
type commandTap struct {
	memctrl.Events
	owner   map[uint64]int // outstanding request ID → enqueuing thread
	counts  dram.Stats
	auto    uint64       // RD/WR issued with auto-precharge
	bare    uint64       // precharges that advance no request
	threads map[int]bool // threads named by request commands
	err     error        // first violation
}

func newCommandTap(inner memctrl.Events) *commandTap {
	return &commandTap{Events: inner, owner: make(map[uint64]int), threads: make(map[int]bool)}
}

func (c *commandTap) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *commandTap) Enqueued(r *memctrl.Request) {
	c.owner[r.ID] = r.Thread
	c.Events.Enqueued(r)
}

func (c *commandTap) Command(cmd dram.Command, rank, bank, row int, r *memctrl.Request, autoPrecharge bool, now uint64) {
	switch cmd {
	case dram.CmdActivate:
		c.counts.Activates++
	case dram.CmdPrecharge:
		c.counts.Precharges++
	case dram.CmdRead:
		c.counts.Reads++
	case dram.CmdWrite:
		c.counts.Writes++
	case dram.CmdRefresh:
		c.counts.Refreshes++
	}
	if autoPrecharge {
		if cmd != dram.CmdRead && cmd != dram.CmdWrite {
			c.fail("cycle %d: auto-precharge on %s", now, cmd)
		}
		c.counts.Precharges++
		c.auto++
	}
	switch {
	case cmd == dram.CmdRefresh:
		if r != nil {
			c.fail("cycle %d: REF names request %d", now, r.ID)
		}
	case r == nil:
		if cmd != dram.CmdPrecharge {
			c.fail("cycle %d: %s names no request", now, cmd)
		}
		c.bare++
	default:
		thread, ok := c.owner[r.ID]
		switch {
		case !ok:
			c.fail("cycle %d: %s for request %d, which is not outstanding", now, cmd, r.ID)
		case thread != r.Thread:
			c.fail("cycle %d: %s for request %d names thread %d, enqueued by %d", now, cmd, r.ID, r.Thread, thread)
		case r.Loc.Rank != rank || r.Loc.Bank != bank || (cmd != dram.CmdPrecharge && r.Loc.Row != row):
			c.fail("cycle %d: %s at rank %d bank %d row %d for request at %+v", now, cmd, rank, bank, row, r.Loc)
		}
		c.threads[r.Thread] = true
		if cmd == dram.CmdWrite {
			delete(c.owner, r.ID) // writes complete on issue
		}
	}
	c.Events.Command(cmd, rank, bank, row, r, autoPrecharge, now)
}

func (c *commandTap) Completed(r *memctrl.Request, now uint64) {
	if _, ok := c.owner[r.ID]; !ok || r.IsWrite {
		c.fail("cycle %d: completion of request %d, which is not an outstanding read", now, r.ID)
	}
	delete(c.owner, r.ID)
	c.Events.Completed(r, now)
}

// TestEventSinkSeesEveryCommand runs a four-thread system with refresh on
// under an open-page, a closed-page and a row-timeout controller. Per
// channel, the command counts the event sink sees must equal the channel's
// own dram.Stats (an auto-precharge counts as a precharge), and every
// command that names a request must name an outstanding one, from the
// thread that enqueued it, on its bank.
func TestEventSinkSeesEveryCommand(t *testing.T) {
	for _, tc := range []struct {
		name   string
		closed bool
		idle   uint64
	}{
		{"open-page", false, 0},
		{"closed-page", true, 0},
		{"row-timeout", false, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastConfig(4)
			cfg.Ctrl.ClosedPage = tc.closed
			cfg.Ctrl.RowTimeout = tc.idle
			if !cfg.Timing.RefreshEnabled {
				t.Fatal("default timing has refresh off")
			}
			sys, err := NewSystem(cfg, quickBenches(4))
			if err != nil {
				t.Fatal(err)
			}
			taps := make([]*commandTap, len(sys.ctrls))
			for i, ctrl := range sys.ctrls {
				taps[i] = newCommandTap((*memEvents)(sys))
				ctrl.SetEvents(taps[i])
			}
			if _, err := sys.Run(20_000, 200_000, 0); err != nil {
				t.Fatal(err)
			}
			threads := make(map[int]bool)
			var auto, bare uint64
			for i, tap := range taps {
				if tap.err != nil {
					t.Fatalf("channel %d: %v", i, tap.err)
				}
				want := sys.ctrls[i].DRAMStats()
				if tap.counts != want {
					t.Errorf("channel %d: sink saw %+v, channel counted %+v", i, tap.counts, want)
				}
				if want.Refreshes == 0 || want.Reads == 0 || want.Writes == 0 {
					t.Errorf("channel %d: %+v: the run must refresh, read and write", i, want)
				}
				for th := range tap.threads {
					threads[th] = true
				}
				auto += tap.auto
				bare += tap.bare
			}
			if len(threads) != cfg.Cores {
				t.Errorf("request commands named threads %v, want all %d", threads, cfg.Cores)
			}
			if (auto > 0) != tc.closed {
				t.Errorf("%d auto-precharges with ClosedPage %v", auto, tc.closed)
			}
			if bare == 0 {
				t.Error("no precharge without a request: refresh and idle-row closes must reach the sink")
			}
		})
	}
}
