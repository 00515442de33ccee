package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"dbpsim/internal/chaos"
	"dbpsim/internal/durable"
	"dbpsim/internal/serve"
	"dbpsim/internal/tenant"
)

// Coordinator limits.
const (
	// dispatchPerWorker is the number of sweep cells in flight per live
	// worker. A sweep's dispatch window is this × the live workers counted
	// when the sweep starts; it is then fixed for the sweep's lifetime and
	// shared across actively sweeping tenants by weight (sweepWindow).
	dispatchPerWorker = 2
	// maxMirroredCheckpoints bounds the in-memory blob mirror (oldest-first
	// eviction). One blob per interrupted run is live at a time.
	maxMirroredCheckpoints = 256
	// coordMaxBodyBytes bounds request bodies: sweeps and checkpoint blobs
	// are bigger than single-run bodies.
	coordMaxBodyBytes = 4 << 20
	// resyncTimeout bounds each worker health probe during Resume's resync
	// handshake.
	resyncTimeout = 2 * time.Second
)

// CoordinatorOptions configures a Coordinator. The zero value is usable.
type CoordinatorOptions struct {
	// MaxInstructions mirrors the workers' per-run cap so sweep cells are
	// validated before dispatch (0 = uncapped).
	MaxInstructions uint64
	// CellTimeout bounds one cell's dispatch, including failover attempts
	// (default 15m — a cell is one full simulation, not one HTTP roundtrip).
	CellTimeout time.Duration
	// HeartbeatTimeout marks a worker down when it has not checked in for
	// this long (default 10s). Down workers leave the ring; their keys move.
	HeartbeatTimeout time.Duration
	// Tenants, when non-nil, makes the coordinator the fleet's tenancy entry
	// point: it authenticates API keys, charges entry-node quotas, shares
	// the sweep dispatch window weight-proportionally across active tenants,
	// and asserts each run's tenant to workers (X-Fleet-Tenant), which then
	// skip their own debit. Nil preserves the pre-tenancy behavior: every
	// request is the default tenant, nothing is charged.
	Tenants *tenant.Registry
	// JournalDir, when set, makes the coordinator crash-survivable: an
	// fsynced append-only journal under this directory records membership,
	// sweep submissions, per-cell completions, and the mirrored-checkpoint
	// index. A restarted coordinator replays it, reconciles against live
	// workers via Resume's resync handshake, and resumes unfinished sweeps
	// from their first incomplete cell. Empty = in-memory only (a crash
	// loses in-flight sweeps, the pre-journal behavior).
	JournalDir string
	// Chaos injects faults (nil = off): journal appends via the "journal"
	// point, mirrored-blob I/O via "checkpoint", and sweep stream tears via
	// "sweep-stream".
	Chaos *chaos.Injector
	// Logger receives structured logs (default slog.Default()).
	Logger *slog.Logger
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.CellTimeout <= 0 {
		o.CellTimeout = 15 * time.Minute
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 10 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// workerState is everything the coordinator tracks per worker. Guarded by
// Coordinator.mu.
type workerState struct {
	id       string
	addr     string // base URL, e.g. http://127.0.0.1:43210
	up       bool
	lastSeen time.Time
}

// mirroredCkpt is the latest checkpoint blob a worker mirrored for one run
// key, re-placeable onto any worker. Guarded by Coordinator.mu.
type mirroredCkpt struct {
	hash  string
	blob  []byte
	cycle uint64
	seq   uint64 // insertion order, for bounded eviction
}

// Coordinator owns all fleet placement state: the worker registry, the
// consistent-hash ring over run keys, and the mirrored-checkpoint store
// that makes runs migratable. It serves the batch sweep API and proxies
// single runs, routing every request to its ring owner (whose local
// singleflight then holds fleet-wide), failing over — with a staged
// checkpoint when one was mirrored — when a worker dies mid-run.
type Coordinator struct {
	opt    CoordinatorOptions
	log    *slog.Logger
	met    *coordMetrics
	mux    *http.ServeMux
	client *http.Client
	jr     *coordJournal

	mu      sync.Mutex
	workers map[string]*workerState
	ring    *Ring
	ckpts   map[string]*mirroredCkpt // run key → latest blob
	ckptSeq uint64

	// unfinished holds sweeps replayed from the journal with work left;
	// Resume drains it into background resumption goroutines.
	unfinished []*replayedSweep

	activeMu     sync.Mutex
	activeSweeps map[string]int // tenant name → sweeps in flight (window sharing)
}

// NewCoordinator builds a coordinator with an empty worker registry. With
// JournalDir set it replays the coordinator journal first: known workers
// come back (down until Resume's resync or their next heartbeat), the
// mirrored-checkpoint index reloads from the blob store, and the
// cells-done/failed counters restore to their pre-crash values. Call
// Resume once the HTTP listener is up to reconcile with live workers and
// restart unfinished sweeps.
func NewCoordinator(opt CoordinatorOptions) (*Coordinator, error) {
	opt = opt.withDefaults()
	c := &Coordinator{
		opt:     opt,
		log:     opt.Logger,
		met:     newCoordMetrics(),
		mux:     http.NewServeMux(),
		client:  &http.Client{}, // per-request contexts carry the deadlines
		workers: make(map[string]*workerState),
		ring:    NewRing(),
		ckpts:   make(map[string]*mirroredCkpt),

		activeSweeps: make(map[string]int),
	}
	if opt.JournalDir != "" {
		jr, replay, err := openCoordJournal(opt.JournalDir, opt.Chaos)
		if err != nil {
			return nil, err
		}
		c.jr = jr
		c.restore(replay)
	}
	c.mux.HandleFunc("POST /v1/sweeps", c.handleSweep)
	c.mux.HandleFunc("POST /v1/runs", c.handleRun)
	c.mux.HandleFunc("POST /v1/fleet/join", c.handleJoin)
	c.mux.HandleFunc("POST /v1/fleet/checkpoint", c.handleCheckpoint)
	c.mux.HandleFunc("GET /v1/fleet/ring", c.handleRing)
	c.mux.HandleFunc("GET /healthz", c.handleHealth)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	return c, nil
}

// restore folds the replayed journal into coordinator state: the worker
// registry (everyone down — liveness is decided by resync or heartbeats,
// never assumed across a restart), the mirrored-checkpoint index (blobs
// reloaded and hash-verified from the content store), the restored
// cells-done/failed counters, and the queue of unfinished sweeps.
func (c *Coordinator) restore(r *coordReplay) {
	for id, addr := range r.workers {
		c.workers[id] = &workerState{id: id, addr: addr}
		c.met.setWorker(id, false)
	}
	for key, m := range r.mirrors {
		blob, err := c.jr.blobs.Get(m.hash)
		if err != nil {
			c.log.Warn("mirrored checkpoint lost across restart; its run resumes from cycle 0",
				"key", key, "hash", m.hash, "err", err)
			continue
		}
		c.ckptSeq++
		c.ckpts[key] = &mirroredCkpt{hash: m.hash, blob: blob, cycle: m.cycle, seq: c.ckptSeq}
	}
	c.met.cellsDone.Store(int64(r.cellsDone()))
	c.met.cellsFailed.Store(int64(r.cellsFailed()))
	for _, sw := range r.sweeps {
		if sw.ended {
			continue
		}
		if len(sw.request) == 0 {
			c.log.Warn("journaled sweep lost its request body; cannot resume", "sweep", sw.id)
			continue
		}
		c.unfinished = append(c.unfinished, sw)
	}
	if len(c.workers) > 0 || len(c.unfinished) > 0 || len(c.ckpts) > 0 {
		c.log.Info("journal replayed", "workers", len(c.workers),
			"unfinished_sweeps", len(c.unfinished), "mirrored_checkpoints", len(c.ckpts))
	}
}

// Close releases the coordinator journal (no-op without one).
func (c *Coordinator) Close() error { return c.jr.Close() }

// Resume reconciles a restarted coordinator with the world: a resync
// handshake probes every journaled worker's /healthz (reachable ones
// rejoin the ring immediately instead of waiting out a heartbeat
// interval), then every unfinished journaled sweep restarts in the
// background from its first incomplete cell — cells with a journaled
// terminal record are never re-dispatched, so nothing completed is ever
// re-simulated and the cells-done counter never double-counts. Call it
// once, after the HTTP listener is serving (workers may already be
// heartbeating). No-op without a journal.
func (c *Coordinator) Resume(ctx context.Context) {
	c.resync(ctx)
	c.mu.Lock()
	pending := c.unfinished
	c.unfinished = nil
	c.mu.Unlock()
	for _, sw := range pending {
		go c.resumeSweep(ctx, sw)
	}
}

// resync probes every journaled worker concurrently and re-admits the ones
// that answer. A worker that is unreachable right now stays down — its
// next heartbeat re-admits it, exactly as if it had been marked down by a
// failed dispatch.
func (c *Coordinator) resync(ctx context.Context) {
	c.mu.Lock()
	probe := make([]WorkerInfo, 0, len(c.workers))
	for _, ws := range c.workers {
		if !ws.up {
			probe = append(probe, WorkerInfo{ID: ws.id, Addr: ws.addr})
		}
	}
	c.mu.Unlock()
	if len(probe) == 0 {
		return
	}
	var wg sync.WaitGroup
	alive := make([]bool, len(probe))
	for i, target := range probe {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, resyncTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, target.Addr+"/healthz", nil)
			if err != nil {
				return
			}
			resp, err := c.client.Do(req)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			alive[i] = resp.StatusCode == http.StatusOK
		}()
	}
	wg.Wait()
	now := time.Now()
	c.mu.Lock()
	changed := false
	for i, target := range probe {
		if !alive[i] {
			continue
		}
		if ws := c.workers[target.ID]; ws != nil && !ws.up {
			ws.up, ws.lastSeen = true, now
			changed = true
			c.met.setWorker(ws.id, true)
			c.log.Info("worker resynced after restart", "id", ws.id, "addr", ws.addr)
		}
	}
	if changed {
		c.rebuildRingLocked()
	}
	c.mu.Unlock()
}

// resumeSweep re-expands a journaled sweep and dispatches only the cells
// without a journaled terminal record. The original client is gone, so
// results stream nowhere — they land in worker caches and the journal,
// which is exactly what a resubmitting client needs: its identical sweep
// re-expands to the same run keys and completes as cache hits.
func (c *Coordinator) resumeSweep(ctx context.Context, sw *replayedSweep) {
	var req SweepRequest
	dec := json.NewDecoder(bytes.NewReader(sw.request))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		c.log.Warn("journaled sweep body no longer decodes; cannot resume", "sweep", sw.id, "err", err)
		return
	}
	cells, apiErr := expandSweep(req, c.opt.MaxInstructions)
	if apiErr != nil {
		c.log.Warn("journaled sweep no longer expands; cannot resume", "sweep", sw.id, "err", apiErr.Message)
		return
	}
	var todo []sweepCell
	for _, cell := range cells {
		if _, terminal := sw.cells[cell.key]; !terminal {
			todo = append(todo, cell)
		}
	}
	c.log.Info("resuming interrupted sweep", "sweep", sw.id,
		"cells", len(cells), "completed", len(cells)-len(todo), "remaining", len(todo))
	// No workers yet (resync found none alive): wait for heartbeats rather
	// than burning the whole grid as no_workers failures.
	for len(todo) > 0 && c.liveWorkers() == 0 && ctx.Err() == nil {
		select {
		case <-ctx.Done():
		case <-time.After(500 * time.Millisecond):
		}
	}
	if ctx.Err() != nil {
		return // shutting down; the still-unfinished sweep resumes next start
	}
	done, failed := c.runSweep(ctx, sw.id, todo, c.opt.Tenants.Lookup(sw.tenant), sw.doneCount(), sw.failedCount(), nil)
	c.log.Info("resumed sweep finished", "sweep", sw.id, "done", done, "failed", failed)
}

// runSweep dispatches cells through ten's share of the dispatch window
// (dispatchPerWorker × the live workers now), hands each cell's stream line
// to onLine (when non-nil; called from the cells' goroutines), and journals
// the sweep's end. done and failed are the tallies of cells that already
// finished before this call; the returned tallies include them.
func (c *Coordinator) runSweep(ctx context.Context, id string, cells []sweepCell, ten *tenant.Tenant, done, failed int, onLine func(SweepResult)) (int, int) {
	// The tenant's window is its weight-proportional share of the
	// cluster-wide window, sized once, here. It throttles only a sweep that
	// starts while another tenant is sweeping: a batch sweep that started
	// alone keeps its whole window, and an interactive sweep arriving later
	// overtakes it only through the workers' weighted-fair queues.
	c.sweepEnter(ten.Name())
	defer c.sweepExit(ten.Name())
	sem := make(chan struct{}, c.sweepWindow(ten, dispatchPerWorker*c.liveWorkers()))
	var countMu sync.Mutex
	var wg sync.WaitGroup
	for _, cell := range cells {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			line := c.runCell(ctx, id, cell, ten)
			countMu.Lock()
			if line.Status == "done" {
				done++
			} else {
				failed++
			}
			countMu.Unlock()
			if onLine != nil {
				onLine(line)
			}
		}()
	}
	wg.Wait()
	if err := c.jr.appendSweepEnd(id, done, failed); err != nil {
		c.log.Warn("journal append failed", "op", "sweep-end", "sweep", id, "err", err)
	}
	return done, failed
}

// liveWorkers counts the workers that are up. The ring is rebuilt from
// exactly the up workers on every membership transition, so its size is
// the count.
func (c *Coordinator) liveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Len()
}

func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// --- membership ----------------------------------------------------------

// joinRequest is the body workers POST to /v1/fleet/join, both to register
// and as their periodic heartbeat.
type joinRequest struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// joinResponse tells the worker the current membership, so workers can
// keep their own ring snapshot for owner-forwarding and peer consults.
type joinResponse struct {
	Workers []WorkerInfo `json:"workers"`
}

// WorkerInfo is one worker's public record in ring/join responses.
type WorkerInfo struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	Up   bool   `json:"up"`
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, coordMaxBodyBytes)).Decode(&req); err != nil {
		writeAPIError(w, http.StatusBadRequest, &serve.APIError{Code: serve.CodeBadRequest, Message: fmt.Sprintf("decode join: %v", err)})
		return
	}
	if req.ID == "" || req.Addr == "" {
		writeAPIError(w, http.StatusBadRequest, &serve.APIError{Code: serve.CodeBadRequest, Message: "join needs id and addr"})
		return
	}
	c.mu.Lock()
	ws, known := c.workers[req.ID]
	if !known {
		ws = &workerState{id: req.ID}
		c.workers[req.ID] = ws
	}
	wasUp, oldAddr := ws.up, ws.addr
	ws.addr, ws.up, ws.lastSeen = req.Addr, true, time.Now()
	if !wasUp || oldAddr != req.Addr {
		c.rebuildRingLocked()
	}
	resp := c.membershipLocked()
	c.mu.Unlock()
	c.met.setWorker(req.ID, true)
	// Journal membership on identity changes only (a new worker or a new
	// address), never on steady-state heartbeats — the journal must not grow
	// with uptime.
	if !known || oldAddr != req.Addr {
		if err := c.jr.appendJoin(req.ID, req.Addr); err != nil {
			c.log.Warn("journal append failed", "op", "join", "worker", req.ID, "err", err)
		}
	}
	if !known {
		c.log.Info("worker joined", "id", req.ID, "addr", req.Addr)
	} else if !wasUp {
		c.log.Info("worker back up", "id", req.ID, "addr", req.Addr)
	}
	writeJSON(w, http.StatusOK, joinResponse{Workers: resp})
}

// membershipLocked snapshots the worker table, sorted by id. Callers hold mu.
func (c *Coordinator) membershipLocked() []WorkerInfo {
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, ws := range c.workers {
		out = append(out, WorkerInfo{ID: ws.id, Addr: ws.addr, Up: ws.up})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// rebuildRingLocked recomputes the ring from live workers. Callers hold mu.
func (c *Coordinator) rebuildRingLocked() {
	var up []string
	for id, ws := range c.workers {
		if ws.up {
			up = append(up, id)
		}
	}
	c.ring = NewRing(up...)
}

// markDown records a worker fault observed during dispatch and removes the
// worker from the ring; a later heartbeat re-admits it.
func (c *Coordinator) markDown(id string, cause error) {
	c.mu.Lock()
	ws := c.workers[id]
	if ws == nil || !ws.up {
		c.mu.Unlock()
		return
	}
	ws.up = false
	c.rebuildRingLocked()
	c.mu.Unlock()
	c.met.setWorker(id, false)
	c.log.Warn("worker marked down", "id", id, "err", cause)
}

// reapStaleLocked marks workers down whose heartbeat is overdue. Callers
// hold mu. Called on placement reads, so a dead-but-never-dispatched-to
// worker still leaves the ring within one heartbeat timeout.
func (c *Coordinator) reapStaleLocked(now time.Time) {
	changed := false
	for _, ws := range c.workers {
		if ws.up && now.Sub(ws.lastSeen) > c.opt.HeartbeatTimeout {
			ws.up = false
			changed = true
			c.met.setWorker(ws.id, false)
			c.log.Warn("worker heartbeat overdue; marked down", "id", ws.id, "last_seen", ws.lastSeen)
		}
	}
	if changed {
		c.rebuildRingLocked()
	}
}

// owner resolves a run key's current placement: (worker, true) or (zero,
// false) when no worker is live.
func (c *Coordinator) owner(key string) (WorkerInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapStaleLocked(time.Now())
	id := c.ring.Owner(key)
	if id == "" {
		return WorkerInfo{}, false
	}
	ws := c.workers[id]
	return WorkerInfo{ID: ws.id, Addr: ws.addr, Up: ws.up}, true
}

// --- checkpoint mirror ---------------------------------------------------

// handleCheckpoint receives a worker's latest checkpoint blob for one run:
// POST /v1/fleet/checkpoint?key=<runKey>&cycle=<n>&hash=<sha256>, binary
// body. Latest-per-key wins; the store is bounded, evicting oldest-staged
// entries (their runs just lose the fast-resume path).
func (c *Coordinator) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	key, hash := q.Get("key"), q.Get("hash")
	// A cycle that does not parse is refused, not read as 0: replay keeps
	// the highest-cycle mirror per key and would rank this newest blob
	// below an older capture.
	cycle, cycleErr := strconv.ParseUint(q.Get("cycle"), 10, 64)
	if key == "" || hash == "" || cycleErr != nil {
		writeAPIError(w, http.StatusBadRequest, &serve.APIError{Code: serve.CodeBadRequest, Message: "checkpoint mirror needs key=, hash= and a decimal cycle="})
		return
	}
	blob, err := io.ReadAll(io.LimitReader(r.Body, coordMaxBodyBytes+1))
	if err != nil || len(blob) > coordMaxBodyBytes {
		writeAPIError(w, http.StatusRequestEntityTooLarge, &serve.APIError{Code: serve.CodeTooLarge, Message: "checkpoint blob too large or unreadable"})
		return
	}
	if got := durable.Hash(blob); got != hash {
		writeAPIError(w, http.StatusBadRequest, &serve.APIError{Code: serve.CodeBadRequest, Message: fmt.Sprintf("checkpoint blob corrupt in transit: hashes to %s, not %s", got, hash)})
		return
	}
	// Persist before indexing: a crash between the two costs only the
	// journal line (the orphaned blob is swept at the next startup), never
	// an index entry pointing at a blob that was never written.
	if c.jr != nil {
		if _, err := c.jr.blobs.Put(blob); err != nil {
			c.log.Warn("mirror blob persist failed; checkpoint survives in memory only", "key", key, "err", err)
		} else if err := c.jr.appendMirror(key, hash, cycle); err != nil {
			c.log.Warn("journal append failed", "op", "mirror", "key", key, "err", err)
		}
	}
	c.mu.Lock()
	c.ckptSeq++
	c.ckpts[key] = &mirroredCkpt{hash: hash, blob: blob, cycle: cycle, seq: c.ckptSeq}
	var evicted []string
	for len(c.ckpts) > maxMirroredCheckpoints {
		var oldestKey string
		var oldestSeq uint64
		for k, m := range c.ckpts {
			if oldestKey == "" || m.seq < oldestSeq {
				oldestKey, oldestSeq = k, m.seq
			}
		}
		delete(c.ckpts, oldestKey)
		evicted = append(evicted, oldestKey)
	}
	c.mu.Unlock()
	c.met.ckptsMirrored.Add(1)
	if len(evicted) > 0 {
		c.met.ckptsDiscarded.Add(int64(len(evicted)))
		for _, k := range evicted {
			if err := c.jr.appendMirrorDrop(k); err != nil {
				c.log.Warn("journal append failed", "op", "mirror-drop", "key", k, "err", err)
			}
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// dropCheckpoint discards the mirrored blob for a finished run. The
// journal records the drop so a restart does not resurrect it; the blob
// file itself is swept at the next startup (two keys can share one content
// address, so eager deletion would need refcounting).
func (c *Coordinator) dropCheckpoint(key string) {
	c.mu.Lock()
	_, had := c.ckpts[key]
	delete(c.ckpts, key)
	c.mu.Unlock()
	if had {
		c.met.ckptsDiscarded.Add(1)
		if err := c.jr.appendMirrorDrop(key); err != nil {
			c.log.Warn("journal append failed", "op", "mirror-drop", "key", key, "err", err)
		}
	}
}

// peekCheckpoint reads the mirrored blob for a run key without consuming
// it: a failed staging or a second worker death must not lose the resume
// point. The entry is only dropped when the run completes.
func (c *Coordinator) peekCheckpoint(key string) *mirroredCkpt {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ckpts[key]
}

// --- dispatch ------------------------------------------------------------

// dispatchOutcome is one cell's terminal verdict from the dispatch loop.
type dispatchOutcome struct {
	status    int    // HTTP status from the worker
	body      []byte // ledger bytes (2xx) or error document
	worker    string
	cache     string // the worker's X-Cache verdict
	migrated  bool
	apiErr    *serve.APIError // set when the fleet itself failed the cell
	ledgerSHA string
}

// dispatch routes one run body to its ring owner and rides out worker
// deaths: a transport error while ctx is live, or a 503, marks the worker
// down, re-resolves placement, stages the run's mirrored checkpoint (when
// one exists) on the new owner, and re-POSTs with X-Resume-Checkpoint —
// the live-migration path. It keeps failing over until a worker answers
// terminally, no workers remain, or ctx expires.
func (c *Coordinator) dispatch(ctx context.Context, key string, body []byte, ft serve.ForwardedTenancy) dispatchOutcome {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return dispatchOutcome{apiErr: &serve.APIError{
				Code: serve.CodeTimeout, Retryable: true,
				Message: fmt.Sprintf("cell timed out after %d dispatch attempts (last worker error: %v)", attempt, lastErr),
			}}
		}
		target, ok := c.owner(key)
		if !ok {
			return dispatchOutcome{apiErr: &serve.APIError{
				Code: serve.CodeNoWorkers, Retryable: true,
				Message: "no live workers in the fleet",
			}}
		}
		if !target.Up {
			// Owner is down and the ring has not moved the key yet (single
			// worker fleet): wait for a heartbeat or the deadline.
			select {
			case <-ctx.Done():
				continue
			case <-time.After(250 * time.Millisecond):
				continue
			}
		}

		var resumeHash string
		if attempt > 0 {
			if m := c.peekCheckpoint(key); m != nil {
				if err := c.stageCheckpoint(ctx, target, m); err != nil {
					c.log.Warn("checkpoint staging failed; run restarts from cycle 0",
						"key", key, "worker", target.ID, "err", err)
				} else {
					resumeHash = m.hash
				}
			}
		}

		req, err := http.NewRequestWithContext(ctx, http.MethodPost, target.Addr+"/v1/runs", bytes.NewReader(body))
		if err != nil {
			return dispatchOutcome{apiErr: &serve.APIError{Code: serve.CodeInternal, Message: err.Error()}}
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Fleet-Forwarded", "coordinator")
		// Assert the entry-authenticated tenancy so the worker's fair queue
		// files this run under the right tenant and lane (it skips its own
		// quota debit — the entry node already charged).
		if ft.Tenant != "" {
			req.Header.Set(serve.HeaderFleetTenant, ft.Tenant)
		}
		if ft.Lane != "" {
			req.Header.Set(serve.HeaderFleetLane, ft.Lane)
		}
		if resumeHash != "" {
			req.Header.Set("X-Resume-Checkpoint", resumeHash)
		}
		resp, err := c.client.Do(req)
		var respBody []byte
		if err == nil {
			respBody, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if err != nil {
			lastErr = err
			if ctx.Err() == nil {
				// A worker fault. When ctx is done instead (the caller hung
				// up, or the cell timed out), the worker is not to blame:
				// the next iteration returns the timeout verdict.
				c.met.failovers.Add(1)
				c.markDown(target.ID, err)
			}
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Draining: the worker is leaving on purpose. Honor its
			// Retry-After, mark it down, and re-place the key.
			lastErr = fmt.Errorf("worker draining (503)")
			c.met.failovers.Add(1)
			c.markDown(target.ID, lastErr)
			if d := retryAfter(resp); d > 0 {
				select {
				case <-ctx.Done():
				case <-time.After(d):
				}
			}
			continue
		}
		if resumeHash != "" {
			c.met.migrations.Add(1)
			c.log.Info("run migrated", "key", key, "worker", target.ID, "resume", resumeHash[:12])
		}
		out := dispatchOutcome{
			status:   resp.StatusCode,
			body:     respBody,
			worker:   target.ID,
			cache:    resp.Header.Get("X-Cache"),
			migrated: resumeHash != "",
		}
		if resp.StatusCode == http.StatusOK {
			out.ledgerSHA = durable.Hash(respBody)
			c.dropCheckpoint(key)
		}
		return out
	}
}

// stageCheckpoint pushes a mirrored blob onto the new owner ahead of the
// migrated dispatch: PUT /v1/checkpoints/{hash}.
func (c *Coordinator) stageCheckpoint(ctx context.Context, target WorkerInfo, m *mirroredCkpt) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		target.Addr+"/v1/checkpoints/"+m.hash, bytes.NewReader(m.blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("stage checkpoint: worker answered %d: %s", resp.StatusCode, body)
	}
	return nil
}

// retryAfter parses a Retry-After header (seconds form) from a response.
func retryAfter(resp *http.Response) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// --- request handlers ----------------------------------------------------

// handleRun proxies one single-run request through the placement layer:
// same body as a worker's POST /v1/runs, same response, but routed to the
// key's owner with checkpoint-migrating failover. Query parameters
// (?timeout=, ?async=) are not forwarded — the coordinator's dispatch is
// synchronous and owns its own deadline.
func (c *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, coordMaxBodyBytes+1))
	if err != nil || len(body) > coordMaxBodyBytes {
		writeAPIError(w, http.StatusRequestEntityTooLarge, &serve.APIError{Code: serve.CodeTooLarge, Message: "body too large or unreadable"})
		return
	}
	ten, authErr := c.authenticate(r)
	if authErr != nil {
		writeAPIError(w, http.StatusUnauthorized, authErr)
		return
	}
	lane, laneErr := ten.MaxLane(r.URL.Query().Get("lane"))
	if laneErr != nil {
		writeAPIError(w, http.StatusBadRequest, &serve.APIError{Code: serve.CodeBadRequest, Message: laneErr.Error()})
		return
	}
	key, est, apiErr := serve.ResolveCost(body, c.opt.MaxInstructions)
	if apiErr != nil {
		writeAPIError(w, http.StatusBadRequest, apiErr)
		return
	}
	if retry, qerr := c.admitCell(ten, est); qerr != nil {
		w.Header().Set("Retry-After", retry)
		writeAPIError(w, http.StatusTooManyRequests, qerr)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.opt.CellTimeout)
	defer cancel()
	out := c.dispatch(ctx, key, body, serve.ForwardedTenancy{Tenant: ten.Name(), Lane: lane})
	if out.apiErr != nil {
		// The fleet never got the run onto a worker; the entry charge is
		// reversed — placement failures must not eat quota.
		ten.Refund(time.Now(), float64(est.SimCycles))
		writeAPIError(w, fleetHTTPStatus(out.apiErr), out.apiErr)
		return
	}
	if out.worker != "" {
		w.Header().Set("X-Fleet-Worker", out.worker)
	}
	if out.cache != "" {
		w.Header().Set("X-Cache", out.cache)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(out.status)
	_, _ = w.Write(out.body)
}

// handleSweep expands the grid and streams one NDJSON line per cell as it
// lands, then a summary line. Cells dispatch concurrently (bounded by the
// sweep's dispatch window, see runSweep); lines are written in completion
// order, which is what "streaming" means here — a slow cell never blocks a
// fast one's result.
func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, coordMaxBodyBytes+1))
	if err != nil || len(body) > coordMaxBodyBytes {
		writeAPIError(w, http.StatusRequestEntityTooLarge, &serve.APIError{Code: serve.CodeTooLarge, Message: "body too large or unreadable"})
		return
	}
	ten, authErr := c.authenticate(r)
	if authErr != nil {
		writeAPIError(w, http.StatusUnauthorized, authErr)
		return
	}
	var req SweepRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeAPIError(w, http.StatusBadRequest, &serve.APIError{Code: serve.CodeBadRequest, Message: fmt.Sprintf("decode sweep: %v", err)})
		return
	}
	cells, apiErr := expandSweep(req, c.opt.MaxInstructions)
	if apiErr != nil {
		writeAPIError(w, http.StatusBadRequest, apiErr)
		return
	}
	c.met.sweeps.Add(1)
	// The sweep's durable identity is its request body's content hash: a
	// client resubmitting the same sweep after an interruption maps onto the
	// same journal entity, and its already-completed cells replay as
	// terminal records rather than new work.
	sweepID := durable.Hash(body)
	if err := c.jr.appendSweep(sweepID, ten.Name(), body); err != nil {
		c.log.Warn("journal append failed", "op", "sweep", "sweep", sweepID, "err", err)
	}

	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	start := time.Now()
	lines := make(chan []byte)
	var done, failed int
	go func() {
		defer close(lines)
		done, failed = c.runSweep(r.Context(), sweepID, cells, ten, 0, 0, func(line SweepResult) {
			if data, err := encodeNDJSON(line); err == nil {
				lines <- data
			}
		})
	}()

	for data := range lines {
		if c.opt.Chaos.Err(chaos.SweepStream) != nil {
			// Injected stream tear: stop writing mid-sweep, exactly like a
			// crashed connection. Cells keep completing into worker caches
			// and the journal; the client sees EOF with no summary line.
			c.log.Warn("chaos: sweep stream torn", "sweep", sweepID)
			for range lines {
			}
			return
		}
		if _, err := w.Write(data); err != nil {
			// Client gone: its request context is canceled, so the cells
			// still in flight or queued end as failed timeouts (their
			// workers stay in the ring). Drain the channel and stop writing.
			for range lines {
			}
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	summary := SweepSummary{
		Summary:   true,
		Cells:     len(cells),
		Done:      done,
		Failed:    failed,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	}
	if data, err := encodeNDJSON(summary); err == nil {
		_, _ = w.Write(data)
		if flusher != nil {
			flusher.Flush()
		}
	}
	c.log.Info("sweep finished", "cells", len(cells), "done", done, "failed", failed,
		"elapsed_s", time.Since(start).Seconds())
}

// runCell admits one sweep cell against its tenant's quota, dispatches it,
// and folds the outcome into its stream line. A quota refusal is a failed
// cell (sweeps are batch work — the stream reports it and moves on rather
// than stalling the whole sweep on a refill). Terminal outcomes are
// journaled before the counters move, so a journaled cell is never
// re-dispatched by a restart and the counters never run ahead of the
// journal.
func (c *Coordinator) runCell(ctx context.Context, sweepID string, cell sweepCell, ten *tenant.Tenant) SweepResult {
	ctx, cancel := context.WithTimeout(ctx, c.opt.CellTimeout)
	defer cancel()
	start := time.Now()
	if _, qerr := c.admitCell(ten, cell.est); qerr != nil {
		res := SweepResult{
			Mix: cell.mix, Scenario: cell.scenario,
			Scheduler: cell.scheduler, Partition: cell.partition,
			Status: "failed", Error: qerr,
		}
		if err := c.jr.appendCell(sweepID, cell, res); err != nil {
			c.log.Warn("journal append failed", "op", "cell", "key", cell.key, "err", err)
		}
		return res
	}
	out := c.dispatch(ctx, cell.key, cell.body, serve.ForwardedTenancy{Tenant: ten.Name(), Lane: tenant.LaneBatch})
	elapsed := time.Since(start)
	c.met.cellSeconds.Observe(elapsed.Seconds())
	res := SweepResult{
		Mix:       cell.mix,
		Scenario:  cell.scenario,
		Scheduler: cell.scheduler,
		Partition: cell.partition,
		Worker:    out.worker,
		Cache:     out.cache,
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
	}
	switch {
	case out.apiErr != nil:
		// The fleet never got the cell onto a worker; reverse the charge.
		ten.Refund(time.Now(), float64(cell.est.SimCycles))
		res.Status = "failed"
		res.Error = out.apiErr
		c.met.cellsFailed.Add(1)
	case out.status == http.StatusOK:
		res.Status = "done"
		res.Ledger = json.RawMessage(out.body)
		res.LedgerSHA256 = out.ledgerSHA
		c.met.cellsDone.Add(1)
	default:
		res.Status = "failed"
		res.Error = decodeErrorBody(out.body, out.status)
		c.met.cellsFailed.Add(1)
	}
	if err := c.jr.appendCell(sweepID, cell, res); err != nil {
		c.log.Warn("journal append failed", "op", "cell", "key", cell.key, "err", err)
	}
	return res
}

// decodeErrorBody recovers the structured error from a worker's non-2xx
// response (both request-level {"error":{...}} and job-terminal documents).
func decodeErrorBody(body []byte, status int) *serve.APIError {
	var doc struct {
		Error *serve.APIError `json:"error"`
	}
	if err := json.Unmarshal(body, &doc); err == nil && doc.Error != nil {
		return doc.Error
	}
	return &serve.APIError{Code: serve.CodeInternal, Message: fmt.Sprintf("worker answered %d: %s", status, bytes.TrimSpace(body))}
}

// --- introspection -------------------------------------------------------

// ringResponse is GET /v1/fleet/ring: membership, placement (for ?key=),
// and the mirrored-checkpoint table — enough for operators and the smoke
// harness to see where any run lives and which worker holds resumable work.
type ringResponse struct {
	Workers     []WorkerInfo     `json:"workers"`
	Owner       string           `json:"owner,omitempty"` // for ?key=
	Checkpoints []CheckpointInfo `json:"checkpoints,omitempty"`
}

// CheckpointInfo describes one mirrored checkpoint blob.
type CheckpointInfo struct {
	Key   string `json:"key"`
	Hash  string `json:"hash"`
	Cycle uint64 `json:"cycle"`
	Bytes int    `json:"bytes"`
	Owner string `json:"owner"` // current ring owner of the key
}

func (c *Coordinator) handleRing(w http.ResponseWriter, r *http.Request) {
	key, _ := url.QueryUnescape(r.URL.Query().Get("key"))
	c.mu.Lock()
	c.reapStaleLocked(time.Now())
	resp := ringResponse{Workers: c.membershipLocked()}
	if key != "" {
		resp.Owner = c.ring.Owner(key)
	}
	for k, m := range c.ckpts {
		resp.Checkpoints = append(resp.Checkpoints, CheckpointInfo{
			Key: k, Hash: m.hash, Cycle: m.cycle, Bytes: len(m.blob), Owner: c.ring.Owner(k),
		})
	}
	c.mu.Unlock()
	sort.Slice(resp.Checkpoints, func(a, b int) bool { return resp.Checkpoints[a].Key < resp.Checkpoints[b].Key })
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.reapStaleLocked(time.Now())
	live := c.ring.Len()
	total := len(c.workers)
	ckpts := len(c.ckpts)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":               "ok",
		"role":                 "coordinator",
		"workers_live":         live,
		"workers_known":        total,
		"mirrored_checkpoints": ckpts,
	})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.met.write(w)
}

// --- small helpers -------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeAPIError(w http.ResponseWriter, status int, e *serve.APIError) {
	writeJSON(w, status, map[string]*serve.APIError{"error": e})
}

// fleetHTTPStatus maps a fleet-level APIError to its HTTP status.
func fleetHTTPStatus(e *serve.APIError) int {
	switch e.Code {
	case serve.CodeNoWorkers:
		return http.StatusServiceUnavailable
	case serve.CodeTimeout:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}
