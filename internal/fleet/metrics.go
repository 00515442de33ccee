package fleet

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"dbpsim/internal/promtext"
)

// coordMetrics instruments the coordinator: placement, dispatch outcomes,
// migrations, and the per-cell sweep latency histogram documented in
// docs/SERVICE.md.
type coordMetrics struct {
	sweeps         atomic.Int64 // POST /v1/sweeps requests accepted
	cellsDone      atomic.Int64 // sweep cells that ended done
	cellsFailed    atomic.Int64 // sweep cells that ended failed (after failover)
	migrations     atomic.Int64 // runs re-placed with a staged checkpoint
	failovers      atomic.Int64 // dispatches re-routed after a worker fault (with or without a checkpoint)
	ckptsMirrored  atomic.Int64 // checkpoint blobs received from workers
	ckptsDiscarded atomic.Int64 // mirrored blobs dropped (run finished, or LRU bound)
	unauthorized   atomic.Int64 // 401s: API key matched no tenant
	quotaRejected  atomic.Int64 // cells refused with quota_exceeded at the entry point

	cellSeconds *promtext.Histogram

	mu      sync.Mutex
	workers map[string]bool // worker id → up, for dbpfleet_worker_up
}

func newCoordMetrics() *coordMetrics {
	return &coordMetrics{
		// A sweep cell is one simulation dispatch: cache hits answer in
		// milliseconds, cold full-budget runs take seconds to minutes.
		cellSeconds: promtext.NewHistogram(0.005, 0.025, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300),
		workers:     make(map[string]bool),
	}
}

func (m *coordMetrics) setWorker(id string, up bool) {
	m.mu.Lock()
	m.workers[id] = up
	m.mu.Unlock()
}

func (m *coordMetrics) write(w io.Writer) {
	counter := promtext.WriteCounter
	counter(w, "dbpfleet_sweeps_total", "Batch sweep requests accepted.", float64(m.sweeps.Load()))
	counter(w, "dbpfleet_sweep_cells_done_total", "Sweep cells that completed with a ledger.", float64(m.cellsDone.Load()))
	counter(w, "dbpfleet_sweep_cells_failed_total", "Sweep cells that failed after exhausting failover.", float64(m.cellsFailed.Load()))
	counter(w, "dbpfleet_migrations_total", "Runs re-placed onto a new worker with a staged checkpoint after their worker died.", float64(m.migrations.Load()))
	counter(w, "dbpfleet_failovers_total", "Dispatches re-routed after a worker fault, with or without a checkpoint to stage.", float64(m.failovers.Load()))
	counter(w, "dbpfleet_checkpoints_mirrored_total", "Checkpoint blobs mirrored to the coordinator by running workers.", float64(m.ckptsMirrored.Load()))
	counter(w, "dbpfleet_checkpoints_discarded_total", "Mirrored checkpoint blobs dropped: their run finished, or the mirror bound evicted them.", float64(m.ckptsDiscarded.Load()))
	counter(w, "dbpfleet_unauthorized_total", "Requests rejected with 401: API key matched no configured tenant.", float64(m.unauthorized.Load()))
	counter(w, "dbpfleet_quota_rejections_total", "Cells refused with quota_exceeded by entry-node admission control.", float64(m.quotaRejected.Load()))

	promtext.WriteHeader(w, "dbpfleet_worker_up", "gauge", "Worker liveness by id: 1 registered and responsive, 0 marked down.")
	m.mu.Lock()
	ids := make([]string, 0, len(m.workers))
	for id := range m.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		v := 0.0
		if m.workers[id] {
			v = 1
		}
		promtext.WriteLabeled(w, "dbpfleet_worker_up", "worker", id, v)
	}
	m.mu.Unlock()

	m.cellSeconds.Write(w, "dbpfleet_sweep_cell_seconds", "Wall-clock seconds from dispatching one sweep cell to streaming its result line.")
}

// workerMetrics instruments the worker-side fleet surface; the blocks are
// appended to the wrapped server's /metrics page via serve.Options.ExtraMetrics.
type workerMetrics struct {
	forwards      atomic.Int64 // runs delegated to their ring owner
	forwardErrors atomic.Int64 // delegation attempts that failed (ran locally instead)
	ckptsSeeded   atomic.Int64 // migration blobs staged over PUT /v1/checkpoints

	heartbeatFailures atomic.Int64 // join/heartbeat POSTs that failed
	degraded          atomic.Int64 // gauge: 1 while serving standalone, 0 while joined
}

func (m *workerMetrics) write(w io.Writer) {
	counter := promtext.WriteCounter
	counter(w, "dbpfleet_forwards_total", "Runs delegated to their ring owner for fleet-wide singleflight.", float64(m.forwards.Load()))
	counter(w, "dbpfleet_forward_errors_total", "Owner delegations that failed; the run executed locally instead.", float64(m.forwardErrors.Load()))
	counter(w, "dbpfleet_checkpoints_seeded_total", "Migration checkpoint blobs staged by the coordinator on this worker.", float64(m.ckptsSeeded.Load()))
	counter(w, "dbpfleet_heartbeat_failures_total", "Coordinator join/heartbeat attempts that failed.", float64(m.heartbeatFailures.Load()))
	promtext.WriteGauge(w, "dbpfleet_degraded", "1 while this worker is serving standalone because the coordinator is unreachable, else 0.", float64(m.degraded.Load()))
}
