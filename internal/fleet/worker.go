package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"dbpsim/internal/chaos"
	"dbpsim/internal/durable"
	"dbpsim/internal/serve"
)

// WorkerOptions configures a fleet worker wrapper around a serve.Server.
type WorkerOptions struct {
	// ID is the worker's stable identity on the ring (required).
	ID string
	// Advertise is the base URL peers and the coordinator reach this worker
	// at, e.g. http://10.0.0.7:8080 (required).
	Advertise string
	// Coordinator is the coordinator's base URL (required).
	Coordinator string
	// HeartbeatInterval is how often the worker re-joins (default 2s). Keep
	// it a few multiples under the coordinator's HeartbeatTimeout.
	HeartbeatInterval time.Duration
	// HeartbeatFailureThreshold is K, the consecutive heartbeat failures
	// after which the worker enters degraded mode: it keeps serving
	// POST /v1/runs standalone, skips owner-forwarding and checkpoint
	// mirrors, and rejoins with capped jittered exponential backoff
	// (default 3).
	HeartbeatFailureThreshold int
	// RejoinBackoffMax caps the degraded-mode rejoin backoff (default 30s).
	RejoinBackoffMax time.Duration
	// Chaos injects network faults (nil = off) on the worker's fleet-facing
	// HTTP clients: "forward", "heartbeat", "mirror", and the cross-cutting
	// "partition".
	Chaos *chaos.Injector
	// Logger receives structured logs (default slog.Default()).
	Logger *slog.Logger
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 2 * time.Second
	}
	if o.HeartbeatFailureThreshold <= 0 {
		o.HeartbeatFailureThreshold = 3
	}
	if o.RejoinBackoffMax <= 0 {
		o.RejoinBackoffMax = 30 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// Worker is the fleet wrapper around a single-node serve.Server: it adds
// the checkpoint staging endpoint, keeps a ring snapshot current via join
// heartbeats, and implements serve.PeerConsult — forwarding non-owned runs
// to their ring owner, whose cache and singleflight make the fleet pay once
// per unique run. Each worker measures its own alone-run baselines.
//
// Wire-up is two-phase because the worker and server reference each other:
// build the Worker first, pass its Consult/OnCheckpoint into serve.Options,
// then Attach the built server.
type Worker struct {
	opt WorkerOptions
	log *slog.Logger
	met *workerMetrics

	// Fleet-facing HTTP clients, one per chaos network point so fault
	// injection can partition exactly one kind of traffic. Without an
	// injector they all share http.DefaultTransport.
	hbClient     *http.Client // join/heartbeat POSTs to the coordinator
	mirrorClient *http.Client // checkpoint mirror POSTs
	fwdTransport http.RoundTripper

	srv *serve.Server
	mux *http.ServeMux

	mu      sync.Mutex
	ring    *Ring
	members map[string]WorkerInfo // id → info, from the latest join response

	// degraded marks the coordinator unreachable (K consecutive heartbeat
	// failures, or an unreachable coordinator at startup): the worker serves
	// standalone — no owner-forwarding, no checkpoint mirrors — until it
	// rejoins.
	degraded atomic.Bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	started  bool // heartbeat loop launched (Start succeeded)
}

// NewWorker builds the fleet wrapper. Call Attach with the serve.Server
// (built with this worker's Consult and OnCheckpoint hooks) before Start.
func NewWorker(opt WorkerOptions) (*Worker, error) {
	opt = opt.withDefaults()
	if opt.ID == "" || opt.Advertise == "" || opt.Coordinator == "" {
		return nil, fmt.Errorf("fleet: worker needs ID, Advertise, and Coordinator")
	}
	w := &Worker{
		opt:          opt,
		log:          opt.Logger,
		met:          &workerMetrics{},
		hbClient:     &http.Client{Timeout: 30 * time.Second, Transport: chaos.Transport(opt.Chaos, chaos.Heartbeat, nil)},
		mirrorClient: &http.Client{Timeout: 30 * time.Second, Transport: chaos.Transport(opt.Chaos, chaos.Mirror, nil)},
		fwdTransport: chaos.Transport(opt.Chaos, chaos.Forward, nil),
		ring:         NewRing(),
		members:      make(map[string]WorkerInfo),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	return w, nil
}

// ExtraMetrics is the serve.Options.ExtraMetrics hook: folds the worker's
// dbpfleet_* series into the wrapped server's /metrics page.
func (w *Worker) ExtraMetrics(out io.Writer) {
	w.met.write(out)
}

// OnCheckpoint is the serve.Options.OnCheckpoint hook: mirrors every
// checkpoint blob to the coordinator so this worker's death does not strand
// its runs. Best-effort — a failed mirror costs the fast-resume path, never
// the run. While degraded the mirror is skipped: a running job mirrors its
// next checkpoint within one CheckpointInterval of rejoining, and that
// capture supersedes anything taken during the outage.
func (w *Worker) OnCheckpoint(runKey string, blob []byte, cycle uint64) {
	if w.degraded.Load() {
		return
	}
	if err := w.postMirror(runKey, blob, cycle); err != nil {
		w.log.Warn("checkpoint mirror failed; dropping it", "key", runKey, "err", err)
	}
}

// postMirror POSTs one checkpoint blob to the coordinator's mirror store.
func (w *Worker) postMirror(runKey string, blob []byte, cycle uint64) error {
	u := fmt.Sprintf("%s/v1/fleet/checkpoint?key=%s&cycle=%d&hash=%s",
		w.opt.Coordinator, url.QueryEscape(runKey), cycle, durable.Hash(blob))
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := w.mirrorClient.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("coordinator answered %d", resp.StatusCode)
	}
	return nil
}

// Attach wires the built serve.Server in and finalizes the worker's mux.
func (w *Worker) Attach(srv *serve.Server) {
	w.srv = srv
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/checkpoints/{hash}", w.handleSeedCheckpoint)
	mux.Handle("/", srv)
	w.mux = mux
}

// ServeHTTP serves the fleet surface, delegating everything else to the
// wrapped server.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	w.mux.ServeHTTP(rw, r)
}

// handleSeedCheckpoint stages a migration blob: PUT /v1/checkpoints/{hash},
// binary body, hash-verified by the server before staging.
func (w *Worker) handleSeedCheckpoint(rw http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	blob, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		writeAPIError(rw, http.StatusBadRequest, &serve.APIError{Code: serve.CodeBadRequest, Message: fmt.Sprintf("read blob: %v", err)})
		return
	}
	if err := w.srv.SeedCheckpoint(hash, blob); err != nil {
		writeAPIError(rw, http.StatusBadRequest, &serve.APIError{Code: serve.CodeBadRequest, Message: err.Error()})
		return
	}
	w.met.ckptsSeeded.Add(1)
	rw.WriteHeader(http.StatusNoContent)
}

// --- serve.PeerConsult ---------------------------------------------------

// Consult returns the worker's PeerConsult implementation for
// serve.Options.Peers.
func (w *Worker) Consult() serve.PeerConsult { return (*workerConsult)(w) }

// workerConsult adapts Worker to serve.PeerConsult without exporting the
// methods on Worker itself.
type workerConsult Worker

// Lookup runs on the executing worker goroutine after the local cache
// missed, for runs that were not forwarded here (serve latches those and
// never consults). If this worker does not own the key, it delegates the
// whole run to its ring owner: the owner's cache answers a hit, and its
// singleflight makes N identical requests cluster-wide cost one
// simulation. Otherwise the local simulation proceeds.
func (wc *workerConsult) Lookup(ctx context.Context, runKey string, body []byte) ([]byte, bool) {
	w := (*Worker)(wc)
	if w.degraded.Load() {
		// Coordinator unreachable: the membership snapshot is stale and
		// the owner may be on the far side of the same partition. Serve
		// standalone and let the rejoin path restore fleet behavior.
		return nil, false
	}
	if w.owned(runKey) {
		return nil, false
	}
	return w.forwardToOwner(ctx, runKey, body)
}

// owned reports whether a run must execute here: this worker owns the key
// (or knows no owner).
func (w *Worker) owned(key string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	owner := w.ring.Owner(key)
	return owner == "" || owner == w.opt.ID
}

// forwardToOwner delegates a run to its ring owner and returns the ledger
// bytes on success. The X-Fleet-Forwarded header stops forwarding chains:
// the owner executes (or serves from cache) no matter what its own ring
// snapshot says. Any failure falls back to local execution — correctness
// first, dedup second.
func (w *Worker) forwardToOwner(ctx context.Context, runKey string, body []byte) ([]byte, bool) {
	w.mu.Lock()
	owner, ok := w.members[w.ring.Owner(runKey)]
	w.mu.Unlock()
	if !ok || !owner.Up {
		return nil, false
	}
	w.met.forwards.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner.Addr+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		w.met.forwardErrors.Add(1)
		return nil, false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Fleet-Forwarded", w.opt.ID)
	// Assert the run's tenancy (stamped by the server before the consult) so
	// the owner's fair queue files it under the original tenant and lane;
	// the owner skips its own quota debit — this node already charged.
	if ft, ok := serve.ForwardedTenancyFrom(ctx); ok {
		if ft.Tenant != "" {
			req.Header.Set(serve.HeaderFleetTenant, ft.Tenant)
		}
		if ft.Lane != "" {
			req.Header.Set(serve.HeaderFleetLane, ft.Lane)
		}
	}
	// The forward shares the run's execution budget (ctx), not the peer
	// client's default timeout: a full simulation may take minutes.
	resp, err := (&http.Client{Transport: w.fwdTransport}).Do(req)
	if err != nil {
		w.met.forwardErrors.Add(1)
		w.log.Warn("owner forward failed; running locally", "key", runKey, "owner", owner.ID, "err", err)
		return nil, false
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		w.met.forwardErrors.Add(1)
		w.log.Warn("owner forward unsuccessful; running locally",
			"key", runKey, "owner", owner.ID, "status", resp.StatusCode, "err", err)
		return nil, false
	}
	return data, true
}

// --- membership loop -----------------------------------------------------

// Start joins the fleet and begins heartbeating. Blocks until the first
// join succeeds. An unreachable coordinator is not fatal: after
// HeartbeatFailureThreshold consecutive failures (or ctx expiry,
// whichever is first) the worker enters degraded mode — serving
// standalone — and the background loop keeps trying to join, so a
// coordinator that comes up late is picked up without a restart.
func (w *Worker) Start(ctx context.Context) error {
	var lastErr error
	for attempt := 0; ctx.Err() == nil && attempt < w.opt.HeartbeatFailureThreshold; attempt++ {
		if err := w.join(ctx); err == nil {
			w.startLoop()
			return nil
		} else {
			lastErr = err
			w.met.heartbeatFailures.Add(1)
		}
		select {
		case <-ctx.Done():
		case <-time.After(500 * time.Millisecond):
		}
	}
	w.log.Warn("coordinator unreachable at startup; serving degraded",
		"coordinator", w.opt.Coordinator, "err", lastErr)
	w.enterDegraded()
	w.startLoop()
	return nil
}

func (w *Worker) startLoop() {
	w.mu.Lock()
	w.started = true
	w.mu.Unlock()
	go w.heartbeatLoop()
}

// enterDegraded flips the worker to standalone serving: owner-forwarding
// and checkpoint mirrors stop. Idempotent.
func (w *Worker) enterDegraded() {
	if w.degraded.CompareAndSwap(false, true) {
		w.met.degraded.Store(1)
		w.log.Warn("entering degraded mode: coordinator unreachable, serving standalone",
			"coordinator", w.opt.Coordinator)
	}
}

// exitDegraded restores fleet participation after a successful rejoin.
func (w *Worker) exitDegraded() {
	if w.degraded.CompareAndSwap(true, false) {
		w.met.degraded.Store(0)
		w.log.Info("rejoined coordinator; leaving degraded mode", "coordinator", w.opt.Coordinator)
	}
}

// Stop ends the heartbeat loop. Idempotent; a no-op when Start never
// succeeded.
func (w *Worker) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.mu.Lock()
	started := w.started
	w.mu.Unlock()
	if started {
		<-w.done
	}
}

// heartbeatLoop re-joins every HeartbeatInterval. After K consecutive
// failures (HeartbeatFailureThreshold) it enters degraded mode and backs
// off — jittered exponential, capped at RejoinBackoffMax — where every
// join attempt doubles as the half-open recovery probe: the first success
// exits degraded mode and resumes the normal cadence.
func (w *Worker) heartbeatLoop() {
	defer close(w.done)
	consecutive := 0
	backoff := w.opt.HeartbeatInterval
	wait := w.opt.HeartbeatInterval
	for {
		select {
		case <-w.stop:
			return
		case <-time.After(wait):
		}
		ctx, cancel := context.WithTimeout(context.Background(), w.opt.HeartbeatInterval)
		err := w.join(ctx)
		cancel()
		if err == nil {
			consecutive = 0
			backoff = w.opt.HeartbeatInterval
			wait = w.opt.HeartbeatInterval
			w.exitDegraded()
			continue
		}
		consecutive++
		w.met.heartbeatFailures.Add(1)
		if w.degraded.Load() {
			backoff = min(backoff*2, w.opt.RejoinBackoffMax)
			wait = backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
			w.log.Warn("rejoin attempt failed; backing off", "err", err, "retry_in", wait)
		} else if consecutive >= w.opt.HeartbeatFailureThreshold {
			w.log.Warn("heartbeat failed", "err", err, "consecutive", consecutive)
			w.enterDegraded()
			backoff = w.opt.HeartbeatInterval
			wait = backoff
		} else {
			w.log.Warn("heartbeat failed", "err", err, "consecutive", consecutive)
			wait = w.opt.HeartbeatInterval
		}
	}
}

// join registers (or re-registers) with the coordinator and refreshes the
// local membership + ring snapshot from the response.
func (w *Worker) join(ctx context.Context) error {
	body, err := json.Marshal(joinRequest{ID: w.opt.ID, Addr: w.opt.Advertise})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opt.Coordinator+"/v1/fleet/join", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hbClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("join: coordinator answered %d: %s", resp.StatusCode, b)
	}
	var jr joinResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&jr); err != nil {
		return err
	}
	members := make(map[string]WorkerInfo, len(jr.Workers))
	var up []string
	for _, info := range jr.Workers {
		members[info.ID] = info
		if info.Up {
			up = append(up, info.ID)
		}
	}
	w.mu.Lock()
	w.members = members
	w.ring = NewRing(up...)
	w.mu.Unlock()
	return nil
}
