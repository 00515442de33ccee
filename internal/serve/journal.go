package serve

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"dbpsim/internal/chaos"
	"dbpsim/internal/durable"
)

// journal is dbpserved's durability layer: an append-only JSONL record
// stream plus content-addressed blob stores for results and checkpoints,
// all under one directory. It exists so async job state survives a daemon
// crash — GET /v1/runs/{id} keeps answering after a restart, and jobs that
// were queued or running when the process died are requeued (resuming from
// their latest checkpoint when one exists) rather than silently forgotten.
//
// Layout:
//
//	<dir>/journal.jsonl         append-only stream of submit/checkpoint/end records
//	<dir>/results/<sha256>      canonical ledger bytes, content-addressed
//	<dir>/checkpoints/<sha256>  sim snapshot blobs, content-addressed
//
// The storage contract — an fsync per record, torn-tail-tolerant replay,
// atomic compaction, verified content-addressed blobs — is internal/durable's;
// this file holds only the record type, its replay fold, and the compacted
// record list. Result files reuse the cache's canonical MarshalLedger bytes
// verbatim, so a restored result is byte-identical to the one served before
// the crash. One simulation costs seconds to minutes, so a handful of fsyncs
// per job is noise.
//
// Garbage collection happens at startup (the record stream is compacted to
// one generation of state, gcBlobs sweeps both content stores down to what
// replay still references) and incrementally at runtime (the server prunes
// a job's superseded blob as soon as a newer one is journaled, and its
// final blob when the job ends).
//
// A nil *journal is a valid, always-off journal (the server runs without
// -journal-dir); every method no-ops on a nil receiver, mirroring
// chaos.Injector. The blob stores carry their own chaos fault points and
// are reached through a non-nil journal only.
type journal struct {
	log     *durable.Log[journalRecord]
	results *durable.Store // faults at chaos.ResultWrite / chaos.ResultRead
	ckpts   *durable.Store // faults at chaos.Checkpoint
}

// journalRecord is one line of journal.jsonl. Op "submit" declares a job
// exists; Op "checkpoint" names the job's latest persisted snapshot; Op
// "end" records its terminal state. A job with a submit record and no end
// record at replay time was lost to a crash — with a request body (and,
// ideally, a checkpoint) it is requeued at startup.
type journalRecord struct {
	Op    string    `json:"op"` // "submit" | "checkpoint" | "end"
	ID    string    `json:"id"`
	Key   string    `json:"key,omitempty"`
	State string    `json:"state,omitempty"` // done | failed | canceled
	Error *APIError `json:"error,omitempty"`
	// Result is the sha256 content address of the ledger bytes (State done).
	Result string `json:"result,omitempty"`
	// Request is the original POST /v1/runs body (Op submit), kept verbatim
	// so an interrupted job can be re-resolved and requeued after a restart.
	Request json.RawMessage `json:"request,omitempty"`
	// Checkpoint is the sha256 content address of a snapshot blob, and Cycle
	// the simulation cycle it was taken at (Op checkpoint).
	Checkpoint string `json:"checkpoint,omitempty"`
	Cycle      uint64 `json:"cycle,omitempty"`
	// Tenancy attribution (absent on legacy records, which replay as the
	// default tenant): the admitting tenant and lane, the simcycle cost the
	// admission controller debited, and the admission time in Unix
	// nanoseconds. Submit and end records both carry them so quota state
	// survives journal compaction (compacted terminal jobs keep only their
	// end record) and requeued jobs keep their lane.
	Tenant        string  `json:"tenant,omitempty"`
	Lane          string  `json:"lane,omitempty"`
	CostSimcycles float64 `json:"cost_simcycles,omitempty"`
	TS            int64   `json:"ts,omitempty"`
}

// restoredJob is a terminal job reconstructed from the journal at startup:
// enough to answer GET /v1/runs/{id} (and, for done jobs, to serve the
// ledger back out of the result store).
type restoredJob struct {
	id     string
	key    string
	state  string
	apiErr *APIError
	result string // content address of the ledger, when state == done

	// interrupted marks a submit record with no matching end record: the job
	// was queued or executing when the daemon died. When request is non-empty
	// the server requeues it at startup, resuming from the checkpoint blob
	// (latest wins) when one was journaled; legacy journals without bodies
	// keep the failed(interrupted) verdict below.
	interrupted bool
	request     json.RawMessage
	checkpoint  string // content address of the latest snapshot blob
	ckptCycle   uint64

	// Tenancy attribution replayed from the record stream. Empty tenant =
	// legacy (pre-tenancy) record → the default tenant. cost/ts feed the
	// startup quota re-debit, so a drained bucket stays drained across a
	// SIGKILL.
	tenantName string
	lane       string
	cost       float64
	ts         int64
}

// openJournal opens (creating if needed) the journal under dir, replays the
// existing record stream, compacts it, and returns the journal plus the
// restored job map and the highest job sequence number seen (so new job ids
// never collide with restored ones).
//
// Replay is crash-tolerant: a torn final line (the process died mid-append)
// is skipped, and jobs whose submit record has no matching end record come
// back marked interrupted — requeued by the server when the submit carried
// the request body, otherwise reported failed with code "interrupted" and
// retryable=true as the client's cue to resubmit.
func openJournal(dir string, inj *chaos.Injector) (*journal, map[string]*restoredJob, uint64, error) {
	results, err := durable.NewStore(filepath.Join(dir, "results"), inj, chaos.ResultWrite, chaos.ResultRead)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: journal dir: %w", err)
	}
	ckpts, err := durable.NewStore(filepath.Join(dir, "checkpoints"), inj, chaos.Checkpoint, chaos.Checkpoint)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: journal dir: %w", err)
	}
	rp := &journalReplay{restored: make(map[string]*restoredJob)}
	// Compaction rewrites the stream from the replayed state — one record per
	// terminal job plus submit(+checkpoint) for interrupted ones — shedding
	// every superseded checkpoint record and duplicate line accumulated
	// across restarts.
	log, err := durable.Open(filepath.Join(dir, "journal.jsonl"), inj, rp.fold,
		func() []journalRecord { return compactRecords(rp.restored) })
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: %w", err)
	}
	return &journal{log: log, results: results, ckpts: ckpts}, rp.restored, rp.maxSeq, nil
}

// journalReplay folds the record stream into terminal job state. Records
// may be out of order relative to each other (a fast worker can append a
// job's end record before the submitter's goroutine appends its submit
// record), so "end" always wins over "submit": once a job's end record has
// been folded, the job is no longer interrupted and later submit or
// checkpoint records leave it alone.
type journalReplay struct {
	restored map[string]*restoredJob
	maxSeq   uint64
}

func (rp *journalReplay) fold(rec journalRecord) {
	if rec.ID == "" {
		return
	}
	if seq, ok := jobSeq(rec.ID); ok && seq > rp.maxSeq {
		rp.maxSeq = seq
	}
	r := rp.restored[rec.ID]
	switch rec.Op {
	case "submit":
		if r == nil {
			r = provisionalInterrupted(rec.ID, rec.Key)
			rp.restored[rec.ID] = r
		}
		if r.interrupted && len(rec.Request) > 0 {
			r.request = rec.Request
		}
		r.adoptTenancy(rec)
	case "checkpoint":
		if r == nil {
			// Checkpoint without a surviving submit line (torn by a crash):
			// the job existed, but without a body it cannot be requeued — it
			// keeps the interrupted verdict.
			r = provisionalInterrupted(rec.ID, rec.Key)
			rp.restored[rec.ID] = r
		}
		if r.interrupted && rec.Checkpoint != "" {
			r.checkpoint = rec.Checkpoint
			r.ckptCycle = rec.Cycle
		}
	case "end":
		if r == nil {
			r = &restoredJob{id: rec.ID, key: rec.Key}
			rp.restored[rec.ID] = r
		}
		r.state = rec.State
		r.apiErr = rec.Error
		r.result = rec.Result
		r.interrupted = false
		r.request = nil
		r.checkpoint = ""
		r.ckptCycle = 0
		r.adoptTenancy(rec)
	}
}

// provisionalInterrupted builds the replay-time default for a job whose end
// record has not (yet) been seen: overwritten by the end record when one
// arrives, left in place as the interrupted verdict if the crash ate it,
// or superseded by a startup requeue when the request body survived.
func provisionalInterrupted(id, key string) *restoredJob {
	return &restoredJob{
		id:          id,
		key:         key,
		state:       stateFailed,
		interrupted: true,
		apiErr: &APIError{
			Code:      CodeInterrupted,
			Message:   "job interrupted by a daemon restart; resubmit to rerun",
			Retryable: true,
		},
	}
}

// adoptTenancy folds a record's tenancy attribution into the restored job.
// Submit and end records carry the same values; whichever survives (a torn
// journal may lose either) wins, and legacy records carry none — the job
// then replays as the default tenant.
func (r *restoredJob) adoptTenancy(rec journalRecord) {
	if rec.Tenant != "" {
		r.tenantName = rec.Tenant
	}
	if rec.Lane != "" {
		r.lane = rec.Lane
	}
	if rec.CostSimcycles > 0 {
		r.cost = rec.CostSimcycles
	}
	if rec.TS != 0 {
		r.ts = rec.TS
	}
}

// jobSeq extracts the numeric sequence from a "run-%08d" job id.
func jobSeq(id string) (uint64, bool) {
	s, ok := strings.CutPrefix(id, "run-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(s, 10, 64)
	return n, err == nil
}

// tenancyStamp is the attribution written onto submit and end records: who
// admitted the job, on which lane, what it was billed, and when.
type tenancyStamp struct {
	tenant string
	lane   string
	cost   float64
	ts     int64
}

func (st tenancyStamp) apply(rec journalRecord) journalRecord {
	rec.Tenant, rec.Lane, rec.CostSimcycles, rec.TS = st.tenant, st.lane, st.cost, st.ts
	return rec
}

// appendSubmit journals a job's existence, carrying the original request
// body so the job can be requeued after a crash. Called as soon as the job
// is admitted, so a crash between admission and completion is detectable.
func (j *journal) appendSubmit(id, key string, request json.RawMessage, st tenancyStamp) error {
	return j.append(st.apply(journalRecord{Op: "submit", ID: id, Key: key, Request: request}))
}

// appendCheckpoint journals a job's latest persisted snapshot. Replay keeps
// only the newest one per job (records are appended in cycle order).
func (j *journal) appendCheckpoint(id, key, hash string, cycle uint64) error {
	return j.append(journalRecord{Op: "checkpoint", ID: id, Key: key, Checkpoint: hash, Cycle: cycle})
}

// appendEnd journals a job's terminal state. apiErr is nil for done jobs;
// resultHash is the content address appendEnd's caller got from
// the result store (empty when there is no ledger to keep).
func (j *journal) appendEnd(id, key, state string, apiErr *APIError, resultHash string, st tenancyStamp) error {
	return j.append(st.apply(journalRecord{Op: "end", ID: id, Key: key, State: state, Error: apiErr, Result: resultHash}))
}

func (j *journal) append(rec journalRecord) error {
	if j == nil {
		return nil
	}
	return j.log.Append(rec)
}

// compactRecords is the compacted record stream for the replayed state: one
// end record per terminal job, submit (+ latest checkpoint) per interrupted
// one, in job-id order. Replaying it reconstructs exactly the same restored
// map, so compaction is invisible to everything downstream.
func compactRecords(restored map[string]*restoredJob) []journalRecord {
	ids := make([]string, 0, len(restored))
	for id := range restored {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var recs []journalRecord
	for _, id := range ids {
		r := restored[id]
		st := tenancyStamp{tenant: r.tenantName, lane: r.lane, cost: r.cost, ts: r.ts}
		if !r.interrupted {
			recs = append(recs, st.apply(journalRecord{Op: "end", ID: r.id, Key: r.key, State: r.state, Error: r.apiErr, Result: r.result}))
			continue
		}
		recs = append(recs, st.apply(journalRecord{Op: "submit", ID: r.id, Key: r.key, Request: r.request}))
		if r.checkpoint != "" {
			recs = append(recs, journalRecord{Op: "checkpoint", ID: r.id, Key: r.key, Checkpoint: r.checkpoint, Cycle: r.ckptCycle})
		}
	}
	return recs
}

// gcBlobs sweeps both content stores down to what the replayed journal
// still references: results named by a done job survive, checkpoints named
// by an interrupted job's resume point survive, everything else — orphans
// from crashed appends, superseded snapshots, abandoned tmp files — is
// deleted. Returns (checkpoints removed, orphan results removed).
func (j *journal) gcBlobs(restored map[string]*restoredJob) (int, int, error) {
	if j == nil {
		return 0, 0, nil
	}
	keepCkpt := make(map[string]bool)
	keepRes := make(map[string]bool)
	for _, r := range restored {
		if r.interrupted && r.checkpoint != "" {
			keepCkpt[r.checkpoint] = true
		}
		if r.state == stateDone && r.result != "" {
			keepRes[r.result] = true
		}
	}
	ckpts, ckptErr := j.ckpts.Sweep(func(h string) bool { return keepCkpt[h] })
	results, resErr := j.results.Sweep(func(h string) bool { return keepRes[h] })
	if ckptErr != nil {
		return ckpts, results, ckptErr
	}
	return ckpts, results, resErr
}

// Close releases the journal file. Safe on nil.
func (j *journal) Close() error {
	if j == nil {
		return nil
	}
	return j.log.Close()
}
