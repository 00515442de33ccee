// Package serve is the simulation-as-a-service layer: an HTTP JSON front
// end over the sim/workload/obs stack. It accepts run requests, validates
// them against the existing configuration layer, executes them on a bounded
// worker pool fed by a bounded queue (backpressure surfaces as 429 +
// Retry-After), and answers with the schema-v1 run ledger from internal/obs.
//
// Results are kept in a content-addressed in-memory cache keyed by the run
// identity (the ledger's config sha256 extended with mix membership and
// budgets), with singleflight deduplication in front of it: N identical
// concurrent requests cost one simulation. Requests whose base configs
// match share one sim.Experiment, so alone-run baselines are computed once
// per (benchmark, seed, base config, budgets) across all mixes and
// policies.
//
// The layer is built to survive hostile conditions:
//
//   - Cancellation: every job owns a context threaded into the simulation's
//     cycle loop (sim.System.RunContext), checked at scheduler-quantum
//     boundaries. A run whose sync waiters have all timed out or
//     disconnected — with no async interest — is canceled and frees its
//     worker within one quantum; so is a run that exceeds the execution cap
//     or is interrupted by a drain deadline.
//   - Panic isolation: workers recover panics from the simulation core. A
//     panicking run becomes a failed job with a structured error body and a
//     runs_panicked_total increment; the daemon stays up.
//   - Durability: with Options.JournalDir set, job metadata and terminal
//     results persist to an on-disk journal (see journal.go), so async job
//     ids survive a restart. Running jobs additionally checkpoint their
//     simulation state every CheckpointInterval CPU cycles (and once more
//     when a drain deadline cancels them); after a restart, interrupted
//     jobs are requeued at their original ids and resume from their latest
//     checkpoint — bit-identical to an uninterrupted run — falling back to
//     a clean cycle-0 rerun when the checkpoint is corrupt or missing.
//   - Fault injection: an optional chaos.Injector fires faults at named
//     points (run delay, worker panic, journal/result-store I/O) so the
//     in-process tests can exercise all of the above; dbpserved's -chaos
//     flag (refused without -chaos-allow) installs one in the binary.
//
// Every non-2xx response carries the structured error schema from
// errors.go: {"error": {"code", "message", "retryable"}}.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dbpsim/internal/chaos"
	"dbpsim/internal/durable"
	"dbpsim/internal/obs"
	"dbpsim/internal/sim"
	"dbpsim/internal/tenant"
)

// Options configures a Server. The zero value is usable: every field has a
// production default.
type Options struct {
	// Workers is the worker-pool size (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the job queue; a full queue rejects new work with
	// 429 (default 64).
	QueueDepth int
	// RunTimeout caps both how long a synchronous request waits for its
	// result and how long a simulation may execute on a worker (default 5m).
	// A request may ask for a shorter wait via ?timeout=, never a longer
	// one. A run that exceeds the execution cap is canceled at the next
	// scheduler quantum and reported as a canceled job.
	RunTimeout time.Duration
	// MaxInstructions, when non-zero, caps warmup+measure per request.
	MaxInstructions uint64
	// Logger receives structured request and lifecycle logs (default:
	// slog.Default()).
	Logger *slog.Logger
	// JournalDir, when set, enables the durability layer: job metadata,
	// checkpoints, and terminal results persist under this directory and are
	// replayed on startup (interrupted jobs are requeued and resume from
	// their latest checkpoint, finished results stay pollable and
	// cache-hittable).
	JournalDir string
	// CheckpointInterval is how often, in simulated CPU cycles, a running
	// job persists a resumable snapshot (default 25M cycles; rounded up to
	// the scheduler quantum). Checkpointing is active only with JournalDir
	// set — there is nowhere durable to put blobs without it.
	CheckpointInterval uint64
	// Chaos, when non-nil, injects faults at named points in the serving
	// stack. Test-and-drill only; the daemon refuses to enable it without
	// an explicit opt-in flag.
	Chaos *chaos.Injector
	// Peers, when non-nil, is consulted on the worker goroutine before a
	// job simulates: a fleet worker uses it to delegate execution to the
	// run key's ring owner. Jobs a fleet hop submitted (X-Fleet-Forwarded)
	// are never consulted. See internal/fleet.
	Peers PeerConsult
	// OnCheckpoint, when non-nil, observes every checkpoint blob a running
	// job emits (after local persistence, when a journal is configured).
	// A fleet worker uses it to mirror blobs to the coordinator so a
	// SIGKILLed worker's runs can be migrated and resumed elsewhere.
	// Setting it enables checkpointing even without JournalDir.
	OnCheckpoint func(runKey string, blob []byte, cycle uint64)
	// ExtraMetrics, when non-nil, appends additional Prometheus exposition
	// blocks to GET /metrics after the server's own (e.g. a fleet worker's
	// dbpfleet_* series).
	ExtraMetrics func(io.Writer)
	// Tenants, when non-nil, enables the tenancy layer: API-key
	// authentication, per-tenant token-bucket quotas at admission, and
	// weighted-fair queueing across tenants (see internal/tenant and the
	// Tenancy section of docs/SERVICE.md). Nil keeps the pre-tenancy
	// behavior: every caller is the unlimited default tenant (the queue is
	// still the weighted-fair implementation, which degrades to exact FIFO
	// for a single flow).
	Tenants *tenant.Registry
}

const (
	// MaxBodyBytes bounds run request bodies.
	MaxBodyBytes = 1 << 20
	// maxJobs bounds the async job registry; oldest finished jobs are
	// evicted first. The result cache itself is unbounded.
	maxJobs = 1024
	// ledgerTool is the ledger Tool field of served runs.
	ledgerTool = "dbpserved"
)

// PeerConsult lets a server participate in a fleet. Lookup runs on the
// worker goroutine after the local cache missed and before the simulation
// starts, so implementations may do network I/O (bounded by ctx, which
// carries the run's execution cap). It is skipped for a job that a
// forwarded request submitted or joined: that run executes here, whatever
// the consult's ring snapshot says, so crossed snapshots cannot bounce it.
type PeerConsult interface {
	// Lookup may answer the run without simulating locally: it returns the
	// canonical ledger bytes for the run key — the result of delegating
	// the run to the key's owner, which answers from its cache, joins an
	// in-flight run, or simulates — and true, or (nil, false) to let the
	// local simulation proceed.
	Lookup(ctx context.Context, runKey string, body []byte) ([]byte, bool)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.RunTimeout <= 0 {
		o.RunTimeout = 5 * time.Minute
	}
	if o.CheckpointInterval == 0 {
		o.CheckpointInterval = 25_000_000
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// job is one admitted simulation: the singleflight unit. done closes when
// the terminal fields (data/apiErr) are final.
//
// Interest accounting: waiters counts sync clients currently blocked on
// done, async is latched by any ?async=1 submission. When the last sync
// waiter departs with no async interest, the job's context is canceled with
// errAbandoned — a queued job is discarded un-executed, a running one stops
// at the next scheduler quantum. Both fields are guarded by Server.mu.
type job struct {
	id      string
	run     resolvedRun // run.key is the job's run key
	ctx     context.Context
	cancel  context.CancelCauseFunc
	done    chan struct{}
	started chan struct{} // closed when a worker picks the job up
	data    []byte        // canonical ledger bytes (terminal, success)
	apiErr  *APIError     // structured terminal error (terminal, failure)

	waiters int  // sync clients waiting; guarded by Server.mu
	async   bool // async interest: never abandon-cancel; guarded by Server.mu

	// body is the original request bytes, journaled with the submit record
	// so the job can be requeued after a crash. resumeFrom, when non-nil, is
	// a checkpoint blob the run restores before its first cycle (set for
	// jobs requeued at startup and for migrated jobs seeded over the fleet
	// API via X-Resume-Checkpoint).
	body       []byte
	resumeFrom []byte

	// lastCkpt is the content address of the job's newest journaled
	// checkpoint blob; it names the blob to prune when a newer one lands
	// or the job ends. Written and read only on the job's
	// worker goroutine.
	lastCkpt string

	// forwarded latches once a request carrying X-Fleet-Forwarded submits
	// or joins the job: execute then skips the Peers consult.
	forwarded atomic.Bool

	// peerServed marks a job answered by the fleet (owner delegation)
	// rather than a local simulation; it keeps
	// runs_executed_total an honest count of simulations this node ran.
	// Written and read only on the job's worker goroutine.
	peerServed bool

	// Tenancy: the admitting tenant and priority lane (immutable after
	// admission), the simcycle cost the admission controller debited, and
	// when. queueWait is stamped by the worker at dequeue and read by
	// finishJob on the same goroutine.
	tenantName string
	lane       string
	est        tenant.Estimate
	admitted   time.Time
	queueWait  time.Duration
}

// newJob builds an admitted job that runs rr for the given tenancy; the
// caller queues it.
func newJob(id string, rr resolvedRun, body []byte, tenantName, lane string, admitted time.Time) *job {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &job{
		id:         id,
		run:        rr,
		ctx:        ctx,
		cancel:     cancel,
		done:       make(chan struct{}),
		started:    make(chan struct{}),
		body:       body,
		tenantName: tenantName,
		lane:       lane,
		est:        tenant.EstimateRun(rr.warmup + rr.measure),
		admitted:   admitted,
	}
}

// state reports the job's lifecycle phase: queued/running while live,
// done/failed/canceled once terminal.
func (j *job) state() string {
	select {
	case <-j.done:
		return terminalState(j.apiErr)
	default:
	}
	select {
	case <-j.started:
		return "running"
	default:
		return "queued"
	}
}

// Server is the simulation service: an http.Handler plus the worker pool
// behind it. Create with New, shut down with Close (drains in-flight jobs).
type Server struct {
	opt     Options
	log     *slog.Logger
	met     *metrics
	mux     *http.ServeMux
	chaos   *chaos.Injector
	journal *journal         // nil without JournalDir
	reg     *tenant.Registry // nil without Options.Tenants (all methods nil-safe)
	slow    *slowdownTracker

	queue *tenant.FairQueue[*job]
	wg    sync.WaitGroup

	// testHookBeforeRun, when non-nil, runs on the worker goroutine after a
	// job is dequeued and before it executes; tests use it to hold a worker
	// busy deterministically.
	testHookBeforeRun func()

	// memo maps request-body digests to run keys (see resolveMemo).
	memo resolveMemo

	mu        sync.Mutex
	closed    bool
	cache     map[string][]byte          // run key → canonical ledger bytes
	diskCache map[string]string          // run key → result-store address (journal restore)
	inflight  map[string]*job            // run key → queued/executing job
	jobs      map[string]*job            // job id → job (async polling)
	jobOrder  []string                   // insertion order, for maxJobs eviction
	restored  map[string]*restoredJob    // job id → journal-restored terminal job
	exps      map[string]*sim.Experiment // experiment key → shared baseline pool
	nextID    uint64

	// seeded holds checkpoint blobs staged over PUT by the fleet layer
	// (hash-verified on arrival), waiting for the migrated run that will
	// consume them via X-Resume-Checkpoint. Guarded by mu; bounded by
	// maxSeededCheckpoints; entries are deleted on use.
	seeded map[string][]byte
}

// maxSeededCheckpoints bounds the staged-migration blob store: a
// coordinator stages one blob right before dispatching its run, so even a
// large fleet rebalancing keeps this small. Beyond the cap, staging is
// refused (the migrated run then reruns from cycle 0 — correct, just
// slower).
const maxSeededCheckpoints = 64

// New builds a server, replays the journal if one is configured, and starts
// the worker pool.
func New(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	s := &Server{
		opt:       opt,
		log:       opt.Logger,
		met:       newMetrics(),
		mux:       http.NewServeMux(),
		chaos:     opt.Chaos,
		reg:       opt.Tenants,
		slow:      newSlowdownTracker(),
		queue:     tenant.NewFairQueue[*job](opt.QueueDepth),
		cache:     make(map[string][]byte),
		diskCache: make(map[string]string),
		inflight:  make(map[string]*job),
		jobs:      make(map[string]*job),
		restored:  make(map[string]*restoredJob),
		exps:      make(map[string]*sim.Experiment),
		seeded:    make(map[string][]byte),
	}
	s.memo.maxInstructions = opt.MaxInstructions
	if opt.JournalDir != "" {
		jnl, restored, maxSeq, err := openJournal(opt.JournalDir, opt.Chaos)
		if err != nil {
			return nil, err
		}
		s.journal = jnl
		s.restored = restored
		s.nextID = maxSeq
		interrupted := 0
		var resume []*restoredJob
		for _, r := range restored {
			if r.state == stateDone && r.result != "" && r.key != "" {
				s.diskCache[r.key] = r.result
			}
			if r.interrupted {
				interrupted++
				if len(r.request) > 0 {
					resume = append(resume, r)
				}
			}
		}
		s.met.restoredJobs.Store(int64(len(restored)))
		s.replayQuotaDebits(restored)
		if len(restored) > 0 {
			s.log.Info("journal replayed",
				"dir", opt.JournalDir, "jobs", len(restored),
				"interrupted", interrupted, "cached_results", len(s.diskCache))
		}
		// Startup garbage collection: blobs no replayed record references are
		// unreachable (their jobs ended, or their checkpoints were superseded)
		// and are deleted before the store grows another generation. GC
		// failures are logged, never fatal.
		ckpts, results, err := jnl.gcBlobs(restored)
		if err != nil {
			s.journalTrouble("blob store GC failed", "startup", err)
		}
		s.met.checkpointsPruned.Add(int64(ckpts))
		if ckpts > 0 || results > 0 {
			s.log.Info("blob stores collected",
				"checkpoints_removed", ckpts, "orphan_results_removed", results)
		}
		s.requeueInterrupted(resume)
	}
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handlePoll)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	for i := 0; i < opt.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// replayQuotaDebits re-applies the admission charges recorded in the
// journal, in admission order, so tenant buckets come back from a crash or
// SIGKILL with their spend intact (refill between record timestamps — and
// across the downtime — is credited, which is exactly token-bucket
// semantics). Legacy records without cost attribution charge nothing.
// Compaction bounds the lookback to one generation of journal state, so
// this is deliberately best-effort accounting, not a billing ledger.
func (s *Server) replayQuotaDebits(restored map[string]*restoredJob) {
	if s.reg == nil {
		return
	}
	var charged []*restoredJob
	for _, r := range restored {
		if r.cost > 0 && r.ts > 0 {
			charged = append(charged, r)
		}
	}
	sort.Slice(charged, func(a, b int) bool { return charged[a].ts < charged[b].ts })
	for _, r := range charged {
		s.reg.Lookup(r.tenantName).Debit(time.Unix(0, r.ts), 1, r.cost)
	}
	if len(charged) > 0 {
		s.log.Info("tenant quota state replayed", "charged_jobs", len(charged))
	}
}

// requeueInterrupted re-admits jobs that were queued or executing when the
// previous process died, at their original ids. Each is re-resolved from its
// journaled request body and latched async (the original waiters are gone;
// the id is the handle clients poll). A job whose latest checkpoint blob
// loads cleanly resumes from it; a corrupt or missing blob degrades to a
// clean cycle-0 rerun (counted in checkpoint_errors_total). Jobs that no
// longer decode, duplicate an already-requeued key, or overflow the queue
// keep their failed(interrupted) verdict from replay. Runs before the
// worker pool starts, so the queue drains in requeue order.
func (s *Server) requeueInterrupted(resume []*restoredJob) {
	sort.Slice(resume, func(a, b int) bool { return resume[a].id < resume[b].id })
	for _, r := range resume {
		rr, apiErr := resolveBody(r.request, s.opt.MaxInstructions)
		if apiErr != nil {
			s.log.Warn("interrupted job no longer resolves; leaving it failed",
				"id", r.id, "err", apiErr.Message)
			continue
		}
		s.mu.Lock()
		if _, dup := s.inflight[rr.key]; dup {
			s.mu.Unlock()
			s.log.Warn("interrupted job duplicates an already-requeued run; leaving it failed",
				"id", r.id, "key", rr.key)
			continue
		}
		// The job keeps its pre-crash tenant and lane: the registry resolves
		// the recorded name (legacy records and removed tenants fall back to
		// the default tenant), and the quota charge was already replayed from
		// the journal — requeueing is not a second admission.
		ten := s.reg.Lookup(r.tenantName)
		lane := r.lane
		if lane == "" {
			lane = ten.Lane()
		}
		j := newJob(r.id, rr, append([]byte(nil), r.request...), ten.Name(), lane, time.Now())
		j.async = true
		if r.checkpoint != "" {
			blob, err := s.journal.ckpts.Get(r.checkpoint)
			if err != nil {
				s.checkpointTrouble("checkpoint unreadable; rerunning from cycle 0", r.id, err)
			} else {
				j.resumeFrom = blob
				j.lastCkpt = r.checkpoint
			}
		}
		if err := s.queue.Push(j, j.tenantName, j.lane, ten.Weight(), float64(j.est.SimCycles)); err != nil {
			j.cancel(nil)
			s.mu.Unlock()
			s.log.Warn("queue full; interrupted job not requeued", "id", r.id)
			continue
		}
		s.inflight[rr.key] = j
		s.registerJobLocked(j)
		delete(s.restored, r.id)
		s.mu.Unlock()
		s.log.Info("interrupted job requeued",
			"id", r.id, "mix", rr.mix.Name, "tenant", j.tenantName, "lane", j.lane,
			"resuming", j.resumeFrom != nil, "resume_cycle", r.ckptCycle)
	}
}

// ServeHTTP dispatches with structured request logging around the mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(rw, r)
	s.met.observeHTTP(rw.code)
	s.log.Info("request",
		"method", r.Method,
		"path", r.URL.Path,
		"status", rw.code,
		"dur_ms", float64(time.Since(start).Microseconds())/1000,
		"cache", rw.Header().Get("X-Cache"),
	)
}

// Close stops admission and drains: queued and executing jobs finish, then
// the workers exit. ctx bounds the polite wait — when it expires, every
// in-flight simulation is canceled with errDrainCancel (they stop within
// one scheduler quantum and land as canceled jobs), so Close still returns
// promptly instead of abandoning the pool mid-run.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.queue.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		n := 0
		for _, j := range s.inflight {
			j.cancel(errDrainCancel)
			n++
		}
		s.mu.Unlock()
		s.log.Warn("drain deadline expired; canceling in-flight runs", "canceled", n)
		// Canceled runs stop at the next scheduler quantum, so this second
		// wait is bounded by milliseconds, not simulation budgets.
		<-done
	}
	return s.journal.Close()
}

// --- request handling ---------------------------------------------------

// handleSubmit admits one run request: cache hit (memory, then journal
// restore) → immediate ledger; identical run in flight → coalesce onto it;
// otherwise enqueue (429 + Retry-After when the queue is full). Sync
// requests then wait; ?async=1 returns 202 + a poll URL instead.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest,
			&APIError{Code: CodeBadRequest, Message: fmt.Sprintf("read body: %v", err)})
		return
	}
	if len(body) > MaxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			&APIError{Code: CodeTooLarge, Message: fmt.Sprintf("body exceeds %d bytes", MaxBodyBytes)})
		return
	}
	mr, run, apiErr := s.memo.resolve(body)
	if apiErr != nil {
		writeError(w, http.StatusBadRequest, apiErr)
		return
	}
	// Fleet-internal hops carry the X-Fleet-Forwarded latch: the entry node
	// already authenticated and charged the tenant, so this node only adopts
	// the asserted tenancy (for queue weighting and accounting) instead of
	// re-authenticating — an unknown asserted name degrades to the default
	// tenant.
	forwarded := r.Header.Get("X-Fleet-Forwarded") != ""
	var ten *tenant.Tenant
	laneReq := r.URL.Query().Get("lane")
	if forwarded {
		ten = s.reg.Lookup(r.Header.Get(HeaderFleetTenant))
		if laneReq == "" {
			laneReq = r.Header.Get(HeaderFleetLane)
		}
	} else {
		var authErr *APIError
		ten, authErr = s.authenticate(r)
		if authErr != nil {
			s.met.unauthorized.Add(1)
			writeError(w, http.StatusUnauthorized, authErr)
			return
		}
	}
	lane, laneErr := ten.MaxLane(laneReq)
	if laneErr != nil {
		writeError(w, http.StatusBadRequest,
			&APIError{Code: CodeBadRequest, Message: laneErr.Error()})
		return
	}
	timeout := s.opt.RunTimeout
	if t := r.URL.Query().Get("timeout"); t != "" {
		d, err := time.ParseDuration(t)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest,
				&APIError{Code: CodeBadRequest, Message: fmt.Sprintf("bad timeout %q (want a positive Go duration, e.g. 30s)", t)})
			return
		}
		if d < timeout {
			timeout = d
		}
	}
	async := r.URL.Query().Get("async") != ""

	s.mu.Lock()
	if data, ok := s.cacheLookupLocked(mr.key); ok {
		s.mu.Unlock()
		s.met.cacheHits.Add(1)
		w.Header().Set("X-Cache", "hit")
		obs.WriteLedgerBytes(w, http.StatusOK, data)
		return
	}
	j, coalesced := s.inflight[mr.key]
	if coalesced {
		s.met.coalesced.Add(1)
		if forwarded {
			j.forwarded.Store(true)
		}
		s.registerInterestLocked(j, async)
		s.mu.Unlock()
		w.Header().Set("X-Cache", "coalesced")
	} else {
		if s.closed {
			s.mu.Unlock()
			// Retry-After tells clients (and the fleet coordinator's failover
			// path) this is a transient fail-over-and-retry condition, same as
			// queue backpressure — not a dead end.
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable,
				&APIError{Code: CodeDraining, Message: "server is draining", Retryable: true})
			return
		}
		if run == nil {
			// A memoised body whose run is neither cached nor in flight (it
			// failed, was canceled or was turned away) is resolved again for
			// its job. resolveBody is pure, so this repeats the memoised
			// success; the error branch only keeps that assumption checked.
			rr, apiErr := resolveBody(body, s.opt.MaxInstructions)
			if apiErr != nil {
				s.mu.Unlock()
				writeError(w, http.StatusBadRequest, apiErr)
				return
			}
			run = &rr
		}
		// Admission control: charge the run's simcycles against the tenant's
		// buckets before a queue slot is taken. Cache hits and coalesced
		// requests above are free — they consume no simulation capacity.
		// Fleet-forwarded requests were already charged at the entry node
		// (the coordinator stamps X-Fleet-Forwarded), so the worker skips the
		// debit rather than double-charging one run.
		est := mr.est
		now := time.Now()
		charged := !forwarded
		if charged {
			if retryAfter, qerr := AdmitQuota(ten, est, now); qerr != nil {
				s.mu.Unlock()
				s.met.observeQuotaRejection(ten.Name())
				w.Header().Set("Retry-After", retryAfter)
				writeError(w, http.StatusTooManyRequests, qerr)
				return
			}
		}
		s.nextID++
		j = newJob(fmt.Sprintf("run-%08d", s.nextID), *run, body, ten.Name(), lane, now)
		j.forwarded.Store(forwarded)
		// A migrated run resumes from a blob the fleet layer staged moments
		// ago (PUT /v1/checkpoints/{hash} → SeedCheckpoint). An unknown hash
		// degrades to a clean cycle-0 run — correct, just slower — and is
		// counted so operators can see failed migrations.
		if hash := r.Header.Get("X-Resume-Checkpoint"); hash != "" {
			if blob, ok := s.takeSeededLocked(hash); ok {
				j.resumeFrom = blob
			} else {
				s.checkpointTrouble("resume checkpoint not staged; running from cycle 0", hash, errUnstagedCheckpoint)
			}
		}
		if err := s.queue.Push(j, j.tenantName, j.lane, ten.Weight(), float64(est.SimCycles)); err != nil {
			s.mu.Unlock()
			j.cancel(nil)
			if charged {
				// The run never queued, so the admission charge is reversed —
				// backpressure must not eat quota.
				ten.Refund(now, float64(est.SimCycles))
			}
			w.Header().Set("Retry-After", "1")
			if errors.Is(err, tenant.ErrQueueClosed) {
				// Close() won the race between our s.closed check and the push.
				writeError(w, http.StatusServiceUnavailable,
					&APIError{Code: CodeDraining, Message: "server is draining", Retryable: true})
				return
			}
			s.met.rejected.Add(1)
			writeError(w, http.StatusTooManyRequests,
				&APIError{Code: CodeQueueFull, Retryable: true,
					Message: fmt.Sprintf("job queue full (%d deep); retry shortly", s.opt.QueueDepth)})
			return
		}
		s.met.cacheMisses.Add(1)
		s.inflight[mr.key] = j
		s.registerJobLocked(j)
		s.registerInterestLocked(j, async)
		s.mu.Unlock()
		w.Header().Set("X-Cache", "miss")
		st := tenancyStamp{tenant: j.tenantName, lane: j.lane, cost: float64(est.SimCycles), ts: now.UnixNano()}
		if err := s.journal.appendSubmit(j.id, j.run.key, j.body, st); err != nil {
			s.journalTrouble("journal submit record failed", j.id, err)
		}
	}

	if async {
		writeJSON(w, http.StatusAccepted, map[string]string{
			"id":     j.id,
			"status": j.state(),
			"href":   "/v1/runs/" + j.id,
			"tenant": j.tenantName,
			"lane":   j.lane,
		})
		return
	}

	// Sync wait: the waiter was registered above; departing (timeout or
	// client disconnect) may cancel the run if it leaves nobody interested.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	select {
	case <-j.done:
		s.dropWaiter(j)
		s.respondJob(w, j)
	case <-ctx.Done():
		lastOut := s.dropWaiter(j)
		msg := fmt.Sprintf("run %s still %s after %s; poll /v1/runs/%s or retry", j.id, j.state(), timeout, j.id)
		if lastOut {
			msg = fmt.Sprintf("run %s abandoned after %s with no remaining waiters; it is being canceled — resubmit to rerun", j.id, timeout)
		}
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusGatewayTimeout,
			&APIError{Code: CodeTimeout, Message: msg, Retryable: true})
	}
}

// cacheLookupLocked checks the in-memory cache, then the journal-restored
// disk cache (promoting a disk hit into memory). Callers hold s.mu.
func (s *Server) cacheLookupLocked(key string) ([]byte, bool) {
	if data, ok := s.cache[key]; ok {
		return data, true
	}
	hash, ok := s.diskCache[key]
	if !ok {
		return nil, false
	}
	data, err := s.journal.results.Get(hash)
	if err != nil {
		// A lost result is a cache miss, not an outage: drop the entry and
		// let the simulation rerun.
		delete(s.diskCache, key)
		s.journalTrouble("restored result unreadable; rerunning", key, err)
		return nil, false
	}
	s.cache[key] = data
	delete(s.diskCache, key)
	return data, true
}

// registerInterestLocked records a request's stake in a job: sync requests
// count as waiters (dropped via dropWaiter), async requests latch the
// job as un-abandonable. Callers hold s.mu.
func (s *Server) registerInterestLocked(j *job, async bool) {
	if async {
		j.async = true
	} else {
		j.waiters++
	}
}

// dropWaiter removes one sync waiter from a job. When the last waiter
// departs from a job nothing else wants (no async interest, not yet
// terminal), the job is canceled: a queued job will be discarded without
// executing, a running one stops at the next scheduler quantum. Returns
// whether this drop abandoned the job.
func (s *Server) dropWaiter(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.waiters--
	select {
	case <-j.done:
		return false // already terminal; nothing to cancel
	default:
	}
	if j.waiters > 0 || j.async {
		return false
	}
	j.cancel(errAbandoned)
	// Un-map the key so an identical resubmission starts fresh instead of
	// coalescing onto a corpse.
	if s.inflight[j.run.key] == j {
		delete(s.inflight, j.run.key)
	}
	return true
}

// handlePoll reports a job by id: 200 + ledger when done, 202 + status
// while queued/running, the structured terminal document for failed or
// canceled jobs — including jobs restored from the journal after a
// restart.
func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, live := s.jobs[id]
	var restored *restoredJob
	if !live {
		restored = s.restored[id]
	}
	s.mu.Unlock()
	switch {
	case live:
		select {
		case <-j.done:
			s.respondJob(w, j)
		default:
			writeJSON(w, http.StatusAccepted, map[string]string{
				"id": j.id, "status": j.state(), "tenant": j.tenantName, "lane": j.lane,
			})
		}
	case restored != nil:
		s.respondRestored(w, restored)
	default:
		writeError(w, http.StatusNotFound,
			&APIError{Code: CodeNotFound, Message: fmt.Sprintf("unknown run id %q", id)})
	}
}

func (s *Server) respondJob(w http.ResponseWriter, j *job) {
	if j.apiErr != nil {
		writeJobError(w, j.id, terminalState(j.apiErr), j.apiErr)
		return
	}
	obs.WriteLedgerBytes(w, http.StatusOK, j.data)
}

// respondRestored answers a poll for a journal-restored job: done jobs
// serve their ledger back out of the result store, failed/canceled jobs
// replay their terminal document.
func (s *Server) respondRestored(w http.ResponseWriter, r *restoredJob) {
	if r.state == stateDone {
		data, err := s.journal.results.Get(r.result)
		if err != nil {
			s.journalTrouble("restored result unreadable", r.id, err)
			writeJobError(w, r.id, stateFailed, &APIError{
				Code:      CodeResultLost,
				Message:   fmt.Sprintf("run %s finished before a restart but its journaled result is unreadable; resubmit to rerun", r.id),
				Retryable: true,
			})
			return
		}
		obs.WriteLedgerBytes(w, http.StatusOK, data)
		return
	}
	writeJobError(w, r.id, r.state, r.apiErr)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	restored := len(s.restored)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"queue_depth":   s.queue.Len(),
		"workers":       s.opt.Workers,
		"chaos":         s.chaos.String(),
		"journal":       s.journal != nil,
		"restored_jobs": restored,
		"tenants":       s.reg != nil,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reloads, reloadErrs := s.reg.ReloadStats()
	s.met.write(w, metricsSnapshot{
		queueCap:     s.queue.Cap(),
		depths:       s.queue.Depths(),
		slowdowns:    s.slow.maxSlowdowns(),
		reloads:      reloads,
		reloadErrors: reloadErrs,
	}, s.opt.ExtraMetrics)
}

// --- fleet surface -------------------------------------------------------
//
// This exported method is the worker half of the fleet protocol
// (internal/fleet wraps a Server and serves it over HTTP): the coordinator
// stages checkpoint blobs here right before dispatching a migrated run.

// SeedCheckpoint stages a checkpoint blob for a migrated run about to be
// submitted with X-Resume-Checkpoint: hash. The blob must hash to its
// claimed address (the same verification the journal's content stores do);
// staging is bounded and entries are consumed by the resuming run.
func (s *Server) SeedCheckpoint(hash string, blob []byte) error {
	if got := durable.Hash(blob); got != hash {
		return fmt.Errorf("serve: staged checkpoint corrupt: content hashes to %s, not %s", got, hash)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.seeded[hash]; !ok && len(s.seeded) >= maxSeededCheckpoints {
		return fmt.Errorf("serve: %d checkpoints already staged; refusing more", len(s.seeded))
	}
	s.seeded[hash] = append([]byte(nil), blob...)
	return nil
}

// takeSeededLocked consumes a staged checkpoint blob. Callers hold s.mu.
func (s *Server) takeSeededLocked(hash string) ([]byte, bool) {
	blob, ok := s.seeded[hash]
	delete(s.seeded, hash)
	return blob, ok
}

// journalTrouble logs and counts a durability-layer failure. The serving
// path never fails a request because the journal is unhappy — results are
// still in memory — but operators need the signal.
func (s *Server) journalTrouble(msg, id string, err error) {
	s.met.journalErrors.Add(1)
	s.log.Error(msg, "id", id, "err", err)
}

// checkpointTrouble is journalTrouble's sibling for the checkpoint path:
// snapshot, persist, and restore faults are logged and counted, never
// fatal — the affected run continues (or reruns) from cycle 0 at worst.
func (s *Server) checkpointTrouble(msg, id string, err error) {
	s.met.checkpointErrors.Add(1)
	s.log.Error(msg, "id", id, "err", err)
}

// --- worker pool ---------------------------------------------------------

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.Pop()
		if !ok {
			return
		}
		j.queueWait = time.Since(j.admitted)
		s.met.observeQueueWait(j.lane, j.queueWait.Seconds())
		close(j.started)
		if s.testHookBeforeRun != nil {
			s.testHookBeforeRun()
		}
		// A job abandoned while still queued is discarded here, un-executed:
		// this is how "remove canceled work from the queue" is implemented
		// for a channel-backed queue.
		if err := context.Cause(j.ctx); err != nil {
			s.finishJob(j, nil, classifyRunError(err), 0)
			continue
		}
		s.met.inFlight.Add(1)
		start := time.Now()
		data, err := s.runJob(j)
		dur := time.Since(start)
		s.met.inFlight.Add(-1)
		s.met.runSeconds.Observe(dur.Seconds())
		s.finishJob(j, data, classifyRunError(err), dur)
	}
}

// runJob executes one simulation under the job's context plus the
// execution cap, with panic isolation: a panic anywhere in the simulation
// core (or injected by chaos) is captured as a *panicError instead of
// killing the daemon.
func (s *Server) runJob(j *job) (data []byte, err error) {
	ctx, cancel := context.WithTimeoutCause(j.ctx, s.opt.RunTimeout, errRunTimeout)
	defer cancel()
	defer func() {
		if v := recover(); v != nil {
			err = capturePanic(v)
		}
	}()
	if err := s.chaos.Sleep(ctx, chaos.RunDelay); err != nil {
		return nil, err
	}
	s.chaos.MaybePanic(chaos.RunPanic)
	return s.execute(ctx, j)
}

// finishJob records a job's terminal state: cache + result store on
// success, metrics and structured logs either way, journal end record
// always. dur is zero for jobs discarded before execution.
func (s *Server) finishJob(j *job, data []byte, apiErr *APIError, dur time.Duration) {
	state := terminalState(apiErr)
	var resultHash string
	if apiErr == nil && s.journal != nil {
		h, err := s.journal.results.Put(data)
		if err != nil {
			s.journalTrouble("result store write failed", j.id, err)
		} else {
			resultHash = h
		}
	}
	s.mu.Lock()
	if apiErr == nil {
		s.cache[j.run.key] = data
	}
	if s.inflight[j.run.key] == j {
		delete(s.inflight, j.run.key)
	}
	s.mu.Unlock()
	// Checkpoint-then-release: a drain-canceled run already journaled its
	// final checkpoint on the way out (Checkpointer.OnCancel). Leaving its
	// submit record un-ended marks the job for requeue-and-resume at the
	// next startup, so a restart costs at most one checkpoint interval of
	// redone simulation instead of a terminal canceled verdict.
	drainCheckpointed := s.journal != nil && apiErr != nil && context.Cause(j.ctx) == errDrainCancel
	j.data, j.apiErr = data, apiErr
	j.cancel(nil) // release the context's timer/goroutine resources
	// Terminal counters and the slowdown gauge move before close(j.done)
	// releases the waiters, so a client that scrapes /metrics right after
	// its response sees its run.
	if dur > 0 {
		// Feed the tenant's slowdown gauge: shared time is queue wait plus
		// service, alone time is service — the fairness metric of the paper,
		// one level up. Discarded jobs (dur == 0) never ran and carry no
		// signal.
		s.slow.observe(j.tenantName, j.queueWait, dur)
	}
	switch {
	case apiErr == nil && j.peerServed:
		// Answered by the fleet, not simulated here: runs_executed_total
		// stays an honest per-node simulation count (and summing it across
		// the fleet counts unique simulations — the singleflight invariant,
		// measurable).
	case apiErr == nil:
		s.met.runsExecuted.Add(1)
	case state == stateCanceled:
		s.met.runsCanceled.Add(1)
	default:
		s.met.runsFailed.Add(1)
		if apiErr.Code == CodePanic {
			s.met.runsPanicked.Add(1)
		}
	}
	close(j.done)
	if !drainCheckpointed {
		st := tenancyStamp{tenant: j.tenantName, lane: j.lane, cost: float64(j.est.SimCycles), ts: j.admitted.UnixNano()}
		if err := s.journal.appendEnd(j.id, j.run.key, state, apiErr, resultHash, st); err != nil {
			s.journalTrouble("journal end record failed", j.id, err)
		}
		// A terminal job will never resume; its last checkpoint blob is
		// garbage the moment the end record lands. A drain-checkpointed job
		// keeps its blob — that IS the resume point.
		if j.lastCkpt != "" {
			if err := s.journal.ckpts.Remove(j.lastCkpt); err != nil {
				s.journalTrouble("final checkpoint prune failed", j.id, err)
			} else {
				s.met.checkpointsPruned.Add(1)
			}
			j.lastCkpt = ""
		}
	}

	switch {
	case apiErr == nil && j.peerServed:
		// The worker's dbpfleet_* counters carry the detail.
		s.log.Info("run served by fleet peer",
			"id", j.id, "mix", j.run.mix.Name, "dur_s", dur.Seconds())
	case apiErr == nil:
		s.log.Info("run executed",
			"id", j.id, "mix", j.run.mix.Name,
			"scheduler", string(j.run.sched), "partition", string(j.run.part),
			"config_hash", j.run.cfgHash[:12], "dur_s", dur.Seconds())
	case state == stateCanceled:
		s.log.Warn("run canceled",
			"id", j.id, "mix", j.run.mix.Name, "code", apiErr.Code,
			"reason", apiErr.Message, "dur_s", dur.Seconds())
	default:
		s.log.Error("run failed",
			"id", j.id, "mix", j.run.mix.Name, "code", apiErr.Code,
			"err", apiErr.Message, "dur_s", dur.Seconds())
	}
}

// execute runs one simulation to canonical ledger bytes: shared experiment
// (baseline reuse), fresh per-run recorder (concurrency-safe), the same
// BuildLedger/MarshalLedger path as the dbpsim CLI, with ctx threaded into
// the cycle loop for quantum-boundary cancellation. With a journal
// configured, the run also checkpoints periodically (and once more when a
// drain cancels it), and resumes from j.resumeFrom when the job was
// requeued after a restart; a checkpoint that fails to restore falls back
// to a clean cycle-0 run rather than failing the job.
func (s *Server) execute(ctx context.Context, j *job) ([]byte, error) {
	rr := j.run
	exp, err := s.experiment(rr)
	if err != nil {
		return nil, err
	}
	// Fleet consult, worker-goroutine side: the key's owner may already hold
	// this exact result (or run it for us) — the fleet-wide singleflight
	// invariant. Best-effort: network trouble just means we simulate. A
	// forwarded job already reached the node that must run it.
	if s.opt.Peers != nil && !j.forwarded.Load() {
		// Stamp the run's tenancy so an owner delegation (forwardToOwner)
		// asserts the original tenant on the next hop instead of defaulting.
		ctx := WithForwardedTenancy(ctx, ForwardedTenancy{Tenant: j.tenantName, Lane: j.lane})
		if data, ok := s.opt.Peers.Lookup(ctx, j.run.key, j.body); ok {
			j.peerServed = true
			return data, nil
		}
	}
	recOpts := obs.Options{
		NumThreads: rr.mix.Cores(),
		NumBanks:   rr.base.Geometry.NumColors(),
	}
	rec, err := obs.NewRecorder(recOpts)
	if err != nil {
		return nil, err
	}
	ck := s.checkpointer(j)
	doRun := func(rec *obs.Recorder) (sim.MixRun, error) {
		if rr.scen != nil {
			return exp.RunScenarioCheckpointedContext(ctx, rr.scen, rr.sched, rr.part, rec, ck)
		}
		return exp.RunMixCheckpointedContext(ctx, rr.mix, rr.sched, rr.part, rec, ck)
	}
	run, err := doRun(rec)
	if err != nil {
		var rerr *sim.RestoreError
		if !errors.As(err, &rerr) || ck == nil || ck.Restore == nil {
			return nil, err
		}
		// The journaled checkpoint does not restore (corrupt blob, or a
		// snapshot-format/config change across the restart): degrade to a
		// clean cycle-0 rerun with a fresh recorder rather than failing a
		// job we know how to execute.
		s.checkpointTrouble("checkpoint restore failed; rerunning from cycle 0", j.id, err)
		ck.Restore = nil
		if rec, err = obs.NewRecorder(recOpts); err != nil {
			return nil, err
		}
		if run, err = doRun(rec); err != nil {
			return nil, err
		}
	}
	led, err := sim.BuildLedger(ledgerTool, rr.base, rr.warmup, rr.measure, run, rec)
	if err != nil {
		return nil, err
	}
	return obs.MarshalLedger(led)
}

// checkpointer wires a job's run into the durability layer: active with a
// journal (durable local blobs), with an OnCheckpoint mirror (a journal-less
// fleet worker still streams blobs to its coordinator), or when the job
// carries a seeded resume blob. Sink faults are non-fatal — the run
// continues, the operator sees checkpoint_errors_total move.
func (s *Server) checkpointer(j *job) *sim.Checkpointer {
	if s.journal == nil && s.opt.OnCheckpoint == nil && j.resumeFrom == nil {
		return nil
	}
	return &sim.Checkpointer{
		Interval: s.opt.CheckpointInterval,
		OnCancel: true,
		Restore:  j.resumeFrom,
		Sink: func(blob []byte, cycle uint64) {
			start := time.Now()
			if s.journal != nil {
				hash, err := s.journal.ckpts.Put(blob)
				if err != nil {
					s.checkpointTrouble("checkpoint write failed", j.id, err)
					return
				}
				if err := s.journal.appendCheckpoint(j.id, j.run.key, hash, cycle); err != nil {
					s.checkpointTrouble("checkpoint journal record failed", j.id, err)
					return
				}
				// The journal now names the new blob as this job's resume
				// point; the one it supersedes is dead weight and goes
				// immediately.
				if j.lastCkpt != "" && j.lastCkpt != hash {
					if err := s.journal.ckpts.Remove(j.lastCkpt); err != nil {
						s.journalTrouble("superseded checkpoint prune failed", j.id, err)
					} else {
						s.met.checkpointsPruned.Add(1)
					}
				}
				j.lastCkpt = hash
			}
			s.met.checkpointsWritten.Add(1)
			s.met.ckptBytes.Observe(float64(len(blob)))
			s.met.ckptSeconds.Observe(time.Since(start).Seconds())
			if s.opt.OnCheckpoint != nil {
				s.opt.OnCheckpoint(j.run.key, blob, cycle)
			}
		},
		OnError: func(err error) {
			s.checkpointTrouble("checkpoint snapshot failed", j.id, err)
		},
		OnRestore: func(cycle uint64) {
			s.met.resumedRuns.Add(1)
			s.log.Info("run resumed from checkpoint", "id", j.id, "cycle", cycle)
		},
	}
}

// experiment returns the shared Experiment for a run's baseline identity,
// creating it on first use.
func (s *Server) experiment(rr resolvedRun) (*sim.Experiment, error) {
	key, err := rr.experimentKey()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.exps[key]; ok {
		return e, nil
	}
	e := sim.NewExperiment(rr.base, rr.warmup, rr.measure)
	s.exps[key] = e
	return e, nil
}

// registerJobLocked adds a job to the async registry, evicting the oldest
// finished jobs beyond maxJobs. Callers hold s.mu.
func (s *Server) registerJobLocked(j *job) {
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	for len(s.jobs) > maxJobs && len(s.jobOrder) > 0 {
		oldest := s.jobs[s.jobOrder[0]]
		if oldest != nil {
			select {
			case <-oldest.done:
			default:
				return // oldest still pending: never evict live jobs
			}
			delete(s.jobs, oldest.id)
		}
		s.jobOrder = s.jobOrder[1:]
	}
}

// --- small helpers -------------------------------------------------------

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes a request-level structured error:
// {"error": {code, message, retryable}}.
func writeError(w http.ResponseWriter, status int, e *APIError) {
	writeJSON(w, status, map[string]*APIError{"error": e})
}

// writeJobError writes a job's terminal error document, which additionally
// names the job and its terminal state:
// {"id", "status", "error": {code, message, retryable}}.
func writeJobError(w http.ResponseWriter, id, state string, e *APIError) {
	writeJSON(w, httpStatus(e), map[string]any{
		"id":     id,
		"status": state,
		"error":  e,
	})
}
