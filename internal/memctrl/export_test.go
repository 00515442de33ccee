package memctrl

// TickReference is Tick with the selection the per-bank candidate heads
// replaced, kept here as the differential oracle's reference: every cycle
// it re-ranks the whole queue through Scheduler.Less, once more for each
// bank whose best request turns out to be timing-blocked, and it finds the
// starved read by scanning the read queue. Command issue, refresh, drain
// and the row-timeout policy are the production code's; only the choice of
// which request to advance is re-derived.
func (c *Controller) TickReference() {
	c.completeTransfers()
	c.sched.OnTick(c.now)

	issued := c.serviceRefresh()
	if !issued {
		c.updateDrainMode()
		if c.draining || (len(c.reads.q) == 0 && len(c.writes.q) > 0) {
			issued = c.refIssueBestWrite()
			if !issued && !c.draining {
				issued = c.refIssueBestRead()
			}
		} else {
			issued = c.refIssueBestRead()
			if !issued && len(c.writes.q) > 0 && len(c.reads.q) == 0 {
				issued = c.refIssueBestWrite()
			}
		}
	}
	if !issued && c.cfg.RowTimeout > 0 {
		c.closeIdleRows()
	}
	c.now++
}

func (c *Controller) refIssueBestRead() bool {
	if len(c.reads.q) == 0 {
		return false
	}
	starved := -1
	if c.cfg.StarvationThreshold > 0 {
		var oldest uint64
		for i, r := range c.reads.q {
			if c.now-r.Arrival >= c.cfg.StarvationThreshold {
				if starved < 0 || r.Arrival < oldest {
					starved, oldest = i, r.Arrival
				}
			}
		}
	}
	less := func(a, b *Request) bool { return c.sched.Less(c, a, b) }
	return c.refSelectAndIssue(&c.reads, starved, less)
}

func (c *Controller) refIssueBestWrite() bool {
	if len(c.writes.q) == 0 {
		return false
	}
	return c.refSelectAndIssue(&c.writes, -1, c.writeLess)
}

// refSelectAndIssue repeatedly picks the most-preferred request among banks
// not yet blocked and tries to advance it by one command, blocking its bank
// when it cannot issue. preferred, if ≥0, is a queue index tried first.
func (c *Controller) refSelectAndIssue(bq *bankQueue, preferred int, less func(a, b *Request) bool) bool {
	blocked := make([]bool, len(bq.head))
	if preferred >= 0 {
		r := bq.q[preferred]
		if c.issueFrom(bq, r) {
			return true
		}
		blocked[bq.bankOf(r)] = true
	}
	for {
		best := -1
		for i, r := range bq.q {
			if blocked[bq.bankOf(r)] {
				continue
			}
			if best < 0 || less(r, bq.q[best]) {
				best = i
			}
		}
		if best < 0 {
			return false
		}
		r := bq.q[best]
		if c.issueFrom(bq, r) {
			return true
		}
		blocked[bq.bankOf(r)] = true
	}
}

// NextEventFresh is NextEvent recomputed from scratch, bypassing the memo.
func (c *Controller) NextEventFresh() uint64 {
	wake := c.sched.NextTickEvent(c.now)
	if wake <= c.now {
		return c.now
	}
	return max(min(wake, c.nextOwnEvent()), c.now)
}

// SkippedReadyHead reports a fresh bank head whose not-before bound lies
// ahead of the clock although its next command could issue now: one that
// selection would wrongly pass over. bank is -1 when there is none.
func (c *Controller) SkippedReadyHead() (queue string, bank int) {
	for _, q := range []struct {
		name string
		bq   *bankQueue
	}{{"read", &c.reads}, {"write", &c.writes}} {
		for b, r := range q.bq.head {
			if r != nil && !q.bq.stale[b] && c.now < q.bq.notBefore[b] && c.ready(r) {
				return q.name, b
			}
		}
	}
	return "", -1
}
