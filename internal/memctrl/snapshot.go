package memctrl

import (
	"fmt"

	"dbpsim/internal/addr"
	"dbpsim/internal/dram"
)

// RequestState is one queued or in-flight request, flattened for
// serialisation. OnComplete closures are not serialisable; after Restore
// demand reads reach their cores through the demand completer, by Tag.
type RequestState struct {
	ID        uint64
	Thread    int
	Addr      uint64
	Loc       addr.Location
	IsWrite   bool
	Demand    bool
	Arrival   uint64
	Tag       uint64
	Activated bool
}

// InflightState is one issued read awaiting its data transfer.
type InflightState struct {
	DataEnd uint64
	Req     RequestState
}

// ControllerState is the controller's complete mutable state, including its
// DRAM channel. Queue order is significant and preserved exactly.
type ControllerState struct {
	ReadQ          []RequestState
	WriteQ         []RequestState
	Inflight       []InflightState
	NextID         uint64
	Now            uint64
	Draining       bool
	LastColCmd     []uint64
	PerThread      []ThreadStats
	BusyReadCycles uint64
	Channel        dram.ChannelState
}

func snapRequest(r *Request) RequestState {
	return RequestState{
		ID:        r.ID,
		Thread:    r.Thread,
		Addr:      r.Addr,
		Loc:       r.Loc,
		IsWrite:   r.IsWrite,
		Demand:    r.Demand,
		Arrival:   r.Arrival,
		Tag:       r.Tag,
		Activated: r.activated,
	}
}

func unsnapRequest(st RequestState) *Request {
	return &Request{
		ID:        st.ID,
		Thread:    st.Thread,
		Addr:      st.Addr,
		Loc:       st.Loc,
		IsWrite:   st.IsWrite,
		Demand:    st.Demand,
		Arrival:   st.Arrival,
		Tag:       st.Tag,
		activated: st.Activated,
	}
}

// Snapshot captures the controller's mutable state. The scheduler's own
// state (which is shared across controllers) is captured separately by the
// kernel.
func (c *Controller) Snapshot() ControllerState {
	st := ControllerState{
		ReadQ:          make([]RequestState, len(c.reads.q)),
		WriteQ:         make([]RequestState, len(c.writes.q)),
		Inflight:       make([]InflightState, len(c.inflight)),
		NextID:         c.nextID,
		Now:            c.now,
		Draining:       c.draining,
		LastColCmd:     append([]uint64(nil), c.lastColCmd...),
		PerThread:      append([]ThreadStats(nil), c.perThread...),
		BusyReadCycles: c.BusyReadCycles,
		Channel:        c.ch.Snapshot(),
	}
	for i, r := range c.reads.q {
		st.ReadQ[i] = snapRequest(r)
	}
	for i, r := range c.writes.q {
		st.WriteQ[i] = snapRequest(r)
	}
	for i, f := range c.inflight {
		st.Inflight[i] = InflightState{DataEnd: f.dataEnd, Req: snapRequest(f.req)}
	}
	return st
}

// Restore installs a previously captured state, rebuilding the request
// queues in their exact order and re-ranking every bank. Restored requests
// carry nil OnComplete hooks; demand reads reach their cores through the
// demand completer by Tag.
func (c *Controller) Restore(st ControllerState) error {
	if len(st.LastColCmd) != len(c.lastColCmd) {
		return fmt.Errorf("memctrl: snapshot has %d bank slots, controller has %d", len(st.LastColCmd), len(c.lastColCmd))
	}
	if len(st.PerThread) != len(c.perThread) {
		return fmt.Errorf("memctrl: snapshot has %d threads, controller has %d", len(st.PerThread), len(c.perThread))
	}
	if err := c.ch.Restore(st.Channel); err != nil {
		return err
	}
	c.reads.q = make([]*Request, len(st.ReadQ))
	for i, rs := range st.ReadQ {
		c.reads.q[i] = unsnapRequest(rs)
	}
	c.writes.q = make([]*Request, len(st.WriteQ))
	for i, rs := range st.WriteQ {
		c.writes.q[i] = unsnapRequest(rs)
	}
	c.reads.rebuild()
	c.writes.rebuild()
	c.nextEvOK = false
	c.inflight = make([]inflight, len(st.Inflight))
	for i, fs := range st.Inflight {
		c.inflight[i] = inflight{dataEnd: fs.DataEnd, req: unsnapRequest(fs.Req)}
	}
	c.nextID = st.NextID
	c.now = st.Now
	c.draining = st.Draining
	copy(c.lastColCmd, st.LastColCmd)
	copy(c.perThread, st.PerThread)
	c.BusyReadCycles = st.BusyReadCycles
	return nil
}
