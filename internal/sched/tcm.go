package sched

import (
	"fmt"
	"sort"

	"dbpsim/internal/memctrl"
	"dbpsim/internal/profile"
)

// ShuffleMode selects how the bandwidth cluster's ranks are shuffled.
type ShuffleMode int

// Shuffle modes.
const (
	// ShuffleInsertion approximates TCM's insertion shuffle: the cluster
	// keeps its niceness order while a rotating victim dips to the bottom,
	// so nice (high-BLP, low-RBL) threads spend most time highly ranked.
	ShuffleInsertion ShuffleMode = iota
	// ShuffleRotate rotates the whole order; every thread occupies every
	// position equally (the "random shuffle" strawman of the TCM paper).
	ShuffleRotate
)

// TCMConfig parameterises Thread Cluster Memory scheduling.
type TCMConfig struct {
	// NumThreads is the hardware thread count.
	NumThreads int
	// ClusterThresh is the fraction of total memory bandwidth allotted to
	// the latency-sensitive cluster (Kim et al. use ~0.10).
	ClusterThresh float64
	// ShuffleInterval is the rank-shuffling period of the bandwidth
	// cluster, in memory cycles.
	ShuffleInterval uint64
	// Shuffle selects the shuffling algorithm.
	Shuffle ShuffleMode
	// RankOverRowHit applies the bandwidth-cluster rank above row-hit
	// status (the literal paper rule). When false, row hits go first within
	// the bandwidth cluster and the rank breaks ties — gentler on locality.
	RankOverRowHit bool
}

// DefaultTCMConfig returns the paper-standard TCM parameters.
func DefaultTCMConfig(numThreads int) TCMConfig {
	return TCMConfig{NumThreads: numThreads, ClusterThresh: 0.10, ShuffleInterval: 800, Shuffle: ShuffleInsertion}
}

// Validate reports configuration errors.
func (c TCMConfig) Validate() error {
	if c.NumThreads <= 0 {
		return fmt.Errorf("sched: TCM NumThreads must be positive, got %d", c.NumThreads)
	}
	if c.ClusterThresh < 0 || c.ClusterThresh > 1 {
		return fmt.Errorf("sched: TCM ClusterThresh must be in [0,1], got %g", c.ClusterThresh)
	}
	if c.ShuffleInterval == 0 {
		return fmt.Errorf("sched: TCM ShuffleInterval must be positive")
	}
	return nil
}

// TCM implements Thread Cluster Memory scheduling: threads are split each
// quantum into a latency-sensitive cluster (always prioritised, ranked by
// ascending MPKI) and a bandwidth-sensitive cluster whose ranking is
// periodically shuffled so that unniceness — high row-buffer locality, low
// bank-level parallelism — is deprioritised and everyone takes turns at the
// bottom.
//
// The shuffle is the insertion-shuffle *approximation* described in
// DESIGN.md: the bandwidth cluster keeps its niceness order, and at each
// shuffle boundary a rotating victim is moved to the bottom.
type TCM struct {
	noQueueEvents // profiles arrive via UpdateQuantum

	cfg TCMConfig
	// rank[tid]: larger = served first.
	rank []int
	// isLatency marks latency-cluster membership (for reporting).
	isLatency []bool
	// bwBase is the bandwidth cluster in niceness-descending order.
	bwBase      []int
	shufflePos  int
	lastShuffle uint64
	// epoch counts rank changes (PriorityEpoch).
	epoch uint64
}

// NewTCM builds a TCM scheduler.
func NewTCM(cfg TCMConfig) (*TCM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &TCM{
		cfg:       cfg,
		rank:      make([]int, cfg.NumThreads),
		isLatency: make([]bool, cfg.NumThreads),
	}
	return t, nil
}

// Name implements memctrl.Scheduler.
func (*TCM) Name() string { return "tcm" }

// LatencyCluster reports the current latency-sensitive membership (for
// tests and reporting).
func (t *TCM) LatencyCluster() []bool {
	out := make([]bool, len(t.isLatency))
	copy(out, t.isLatency)
	return out
}

// Rank returns the current rank of a thread (larger = higher priority).
func (t *TCM) Rank(thread int) int {
	if thread < 0 || thread >= len(t.rank) {
		return -1
	}
	return t.rank[thread]
}

// UpdateQuantum reclusters and re-ranks threads from the quantum profiles.
// The simulation kernel calls it at every TCM quantum boundary.
func (t *TCM) UpdateQuantum(samples []profile.ThreadSample) {
	n := t.cfg.NumThreads
	byMPKI := make([]int, 0, n)
	var totalBW float64
	bw := make([]float64, n)
	for _, s := range samples {
		if s.Thread < 0 || s.Thread >= n {
			continue
		}
		byMPKI = append(byMPKI, s.Thread)
		bw[s.Thread] = float64(s.ReadsServed + s.WritesServed)
		totalBW += bw[s.Thread]
	}
	prof := make([]profile.ThreadSample, n)
	for _, s := range samples {
		if s.Thread >= 0 && s.Thread < n {
			prof[s.Thread] = s
		}
	}
	sort.Slice(byMPKI, func(i, j int) bool {
		a, b := byMPKI[i], byMPKI[j]
		if prof[a].MPKI != prof[b].MPKI {
			return prof[a].MPKI < prof[b].MPKI
		}
		return a < b
	})

	// Latency cluster: the largest low-MPKI prefix consuming at most
	// ClusterThresh of total bandwidth.
	for i := range t.isLatency {
		t.isLatency[i] = false
	}
	budget := t.cfg.ClusterThresh * totalBW
	var used float64
	cut := 0
	for _, tid := range byMPKI {
		if used+bw[tid] > budget {
			break
		}
		used += bw[tid]
		t.isLatency[tid] = true
		cut++
	}

	// Ranks: latency cluster above everything, ordered by ascending MPKI.
	for i, tid := range byMPKI[:cut] {
		t.rank[tid] = 2*n - i // descending with MPKI order
	}

	// Bandwidth cluster: niceness = BLP rank − RBL rank.
	bwCluster := byMPKI[cut:]
	byBLP := append([]int(nil), bwCluster...)
	sort.Slice(byBLP, func(i, j int) bool {
		a, b := byBLP[i], byBLP[j]
		if prof[a].BLP != prof[b].BLP {
			return prof[a].BLP < prof[b].BLP
		}
		return a < b
	})
	byRBL := append([]int(nil), bwCluster...)
	sort.Slice(byRBL, func(i, j int) bool {
		a, b := byRBL[i], byRBL[j]
		if prof[a].RBL != prof[b].RBL {
			return prof[a].RBL < prof[b].RBL
		}
		return a < b
	})
	nice := make([]int, n)
	for i, tid := range byBLP {
		nice[tid] += i
	}
	for i, tid := range byRBL {
		nice[tid] -= i
	}
	t.bwBase = append(t.bwBase[:0], bwCluster...)
	sort.Slice(t.bwBase, func(i, j int) bool {
		a, b := t.bwBase[i], t.bwBase[j]
		if nice[a] != nice[b] {
			return nice[a] > nice[b]
		}
		return a < b
	})
	t.shufflePos = 0
	t.applyBWRanks()
}

// applyBWRanks assigns bandwidth-cluster ranks for the current shuffle
// step.
func (t *TCM) applyBWRanks() {
	t.epoch++ // every caller changes ranks or cluster membership
	k := len(t.bwBase)
	if k == 0 {
		return
	}
	switch t.cfg.Shuffle {
	case ShuffleRotate:
		rot := t.shufflePos % k
		for i, tid := range t.bwBase {
			pos := (i + rot) % k // 0 = top of the bandwidth cluster
			t.rank[tid] = k - pos
		}
	default: // ShuffleInsertion
		victim := t.shufflePos % k
		rank := k
		for i, tid := range t.bwBase {
			if i == victim {
				continue
			}
			t.rank[tid] = rank
			rank--
		}
		t.rank[t.bwBase[victim]] = rank
	}
}

// OnTick implements memctrl.Scheduler: advances the shuffle.
func (t *TCM) OnTick(now uint64) {
	if now-t.lastShuffle >= t.cfg.ShuffleInterval {
		t.lastShuffle = now
		t.shufflePos++
		t.applyBWRanks()
	}
}

// NextTickEvent implements memctrl.Scheduler: the next shuffle boundary.
// lastShuffle is serialised state, so skipping must deliver the OnTick that
// advances it at exactly this cycle.
func (t *TCM) NextTickEvent(uint64) uint64 {
	return t.lastShuffle + t.cfg.ShuffleInterval
}

// PriorityEpoch implements memctrl.Scheduler: ranks and clusters
// change only in applyBWRanks (shuffle and quantum) and Restore.
func (t *TCM) PriorityEpoch() uint64 { return t.epoch }

// Less implements memctrl.Scheduler. Priority: latency cluster strictly
// first (ordered by its MPKI rank); within the bandwidth cluster row hits
// go before the shuffled rank so locality survives, with the rank deciding
// among equals; age last.
func (t *TCM) Less(ctx memctrl.SchedContext, a, b *memctrl.Request) bool {
	la := t.inLatency(a.Thread)
	lb := t.inLatency(b.Thread)
	if la != lb {
		return la
	}
	ra, rb := t.Rank(a.Thread), t.Rank(b.Thread)
	if (la && lb || t.cfg.RankOverRowHit) && ra != rb {
		return ra > rb
	}
	ha, hb := ctx.RowHit(a), ctx.RowHit(b)
	if ha != hb {
		return ha
	}
	if ra != rb {
		return ra > rb
	}
	return a.ID < b.ID
}

func (t *TCM) inLatency(thread int) bool {
	return thread >= 0 && thread < len(t.isLatency) && t.isLatency[thread]
}
