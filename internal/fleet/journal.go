package fleet

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"

	"dbpsim/internal/chaos"
	"dbpsim/internal/durable"
	"dbpsim/internal/serve"
)

// coordJournal is the coordinator's durability layer, on the same
// internal/durable contract as the worker journal in internal/serve: an
// fsynced append-only JSONL record stream plus a content-addressed blob
// store for mirrored checkpoints, all under one directory. It exists so the
// coordinator stops being the fleet's single point of failure — a restarted
// coordinator replays membership, in-flight sweep progress, and the
// checkpoint mirror index, then resumes every unfinished sweep from its
// first incomplete cell (completed cells are journaled with their
// ledger_sha256 and are never re-simulated; resubmitted cells land as
// worker cache hits).
//
// Layout:
//
//	<dir>/journal.jsonl         append-only stream of coordRecord lines
//	<dir>/checkpoints/<sha256>  mirrored checkpoint blobs, content-addressed
//
// A nil *coordJournal is a valid, always-off journal (the coordinator runs
// without -journal-dir); every method no-ops on a nil receiver, mirroring
// the serve journal and chaos.Injector. The blob store carries its own
// chaos fault point and is reached through a non-nil journal only.
type coordJournal struct {
	log   *durable.Log[coordRecord]
	blobs *durable.Store // faults at chaos.Checkpoint
}

// coordRecord is one line of the coordinator's journal.jsonl.
//
//	op "join"        a worker registered (or re-advertised a new address)
//	op "sweep"       a sweep was accepted; carries the verbatim request body
//	op "cell"        one sweep cell reached a terminal state
//	op "sweep-end"   a sweep streamed its summary line (Done/Failed totals)
//	op "mirror"      a worker mirrored a checkpoint blob (blob is on disk)
//	op "mirror-drop" a mirrored blob was discarded (run finished / evicted)
type coordRecord struct {
	Op     string `json:"op"`
	Worker string `json:"worker,omitempty"` // join: id; cell: who served it
	Addr   string `json:"addr,omitempty"`   // join: advertised base URL

	// Sweep is the sweep's identity: the sha256 of its request body, so a
	// resubmitted identical sweep maps onto the same journal entity.
	Sweep   string          `json:"sweep,omitempty"`
	Tenant  string          `json:"tenant,omitempty"`
	Request json.RawMessage `json:"request,omitempty"`

	// Cell records carry the run key plus the terminal verdict; done cells
	// name their canonical ledger bytes so a restarted coordinator can prove
	// completion without re-dispatching.
	Key          string          `json:"key,omitempty"` // run key; also mirror key
	Mix          string          `json:"mix,omitempty"`
	Scenario     string          `json:"scenario,omitempty"`
	Scheduler    string          `json:"scheduler,omitempty"`
	Partition    string          `json:"partition,omitempty"`
	Status       string          `json:"status,omitempty"` // done | failed
	LedgerSHA256 string          `json:"ledger_sha256,omitempty"`
	Error        *serve.APIError `json:"error,omitempty"`

	// Sweep-end totals, so cells-done/failed counters restore exactly across
	// restarts even after compaction drops an ended sweep's cell records.
	Done   int `json:"done,omitempty"`
	Failed int `json:"failed,omitempty"`

	// Mirror records name the blob's content address and capture cycle.
	Checkpoint string `json:"checkpoint,omitempty"`
	Cycle      uint64 `json:"cycle,omitempty"`
}

// replayedCell is one journaled terminal cell outcome.
type replayedCell struct {
	status    string
	ledgerSHA string
	worker    string
}

// replayedSweep is one sweep's folded journal state: the verbatim request
// (so an unfinished sweep can be re-expanded and resumed), the terminal
// cells seen so far keyed by run key, and whether the summary line was
// reached. done/failed carry an ended sweep's totals through compaction.
type replayedSweep struct {
	id      string
	tenant  string
	request json.RawMessage
	cells   map[string]replayedCell
	ended   bool
	done    int
	failed  int
}

// mirrorRef points at one mirrored checkpoint blob in the content store.
type mirrorRef struct {
	hash  string
	cycle uint64
}

// coordReplay is the coordinator state reconstructed from the journal.
type coordReplay struct {
	workers map[string]string // worker id → last advertised addr
	sweeps  map[string]*replayedSweep
	mirrors map[string]mirrorRef // run key → latest mirrored blob
}

// cellsDone/cellsFailed fold the replayed stream into the counter values a
// never-restarted coordinator would report: ended sweeps contribute their
// journaled totals, unfinished sweeps the terminal cells seen so far.
// Restoring the counters from here — and only dispatching cells without a
// journaled terminal record — is what keeps a resumed sweep from double
// counting.
func (r *coordReplay) cellsDone() int {
	n := 0
	for _, sw := range r.sweeps {
		n += sw.doneCount()
	}
	return n
}

func (r *coordReplay) cellsFailed() int {
	n := 0
	for _, sw := range r.sweeps {
		n += sw.failedCount()
	}
	return n
}

func (sw *replayedSweep) doneCount() int {
	if sw.ended {
		return sw.done
	}
	n := 0
	for _, c := range sw.cells {
		if c.status == "done" {
			n++
		}
	}
	return n
}

func (sw *replayedSweep) failedCount() int {
	if sw.ended {
		return sw.failed
	}
	n := 0
	for _, c := range sw.cells {
		if c.status != "done" {
			n++
		}
	}
	return n
}

func newCoordReplay() *coordReplay {
	return &coordReplay{
		workers: make(map[string]string),
		sweeps:  make(map[string]*replayedSweep),
		mirrors: make(map[string]mirrorRef),
	}
}

// openCoordJournal opens (creating if needed) the coordinator journal
// under dir, replays the record stream, compacts it, reopens for append,
// and sweeps the blob store down to the replayed mirror index. Runtime
// drops only append mirror-drop records (two run keys can share one content
// address, so eager file deletion would need refcounting); this startup
// sweep is where the space comes back. It is best-effort: a blob it fails
// to remove stays unreferenced and is retried at the next startup.
func openCoordJournal(dir string, inj *chaos.Injector) (*coordJournal, *coordReplay, error) {
	blobs, err := durable.NewStore(filepath.Join(dir, "checkpoints"), inj, chaos.Checkpoint, chaos.Checkpoint)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: journal dir: %w", err)
	}
	r := newCoordReplay()
	log, err := durable.Open(filepath.Join(dir, "journal.jsonl"), inj, r.fold, r.records)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: %w", err)
	}
	keep := make(map[string]bool, len(r.mirrors))
	for _, m := range r.mirrors {
		keep[m.hash] = true
	}
	_, _ = blobs.Sweep(func(h string) bool { return keep[h] })
	return &coordJournal{log: log, blobs: blobs}, r, nil
}

// fold applies one record to the replayed coordinator state. Tolerances,
// in order of the properties the fuzz test pins: a cell record whose sweep
// record was lost creates a provisional request-less sweep (progress is
// counted, but without a body the sweep cannot be resumed); duplicate cell
// records for one run key keep the first verdict; "sweep-end" wins over
// any order of arrival — an ended sweep is never resumed, whatever else
// replays. Unknown ops are skipped, among them the "down" records older
// coordinators wrote.
func (r *coordReplay) fold(rec coordRecord) {
	switch rec.Op {
	case "join":
		if rec.Worker != "" && rec.Addr != "" {
			r.workers[rec.Worker] = rec.Addr
		}
	case "sweep":
		if rec.Sweep == "" {
			return
		}
		sw := r.sweep(rec.Sweep)
		if len(rec.Request) > 0 {
			sw.request = rec.Request
		}
		if rec.Tenant != "" {
			sw.tenant = rec.Tenant
		}
	case "cell":
		if rec.Sweep == "" || rec.Key == "" || rec.Status == "" {
			return
		}
		sw := r.sweep(rec.Sweep)
		if _, dup := sw.cells[rec.Key]; dup {
			return // duplicate completion: idempotent, first wins
		}
		sw.cells[rec.Key] = replayedCell{
			status:    rec.Status,
			ledgerSHA: rec.LedgerSHA256,
			worker:    rec.Worker,
		}
	case "sweep-end":
		if rec.Sweep == "" {
			return
		}
		sw := r.sweep(rec.Sweep)
		if sw.ended {
			return
		}
		sw.ended = true
		sw.done, sw.failed = rec.Done, rec.Failed
	case "mirror":
		if rec.Key == "" || rec.Checkpoint == "" {
			return
		}
		// Latest capture wins; records append in cycle order, so the cycle
		// guard only matters for shuffled streams.
		if cur, ok := r.mirrors[rec.Key]; !ok || rec.Cycle >= cur.cycle {
			r.mirrors[rec.Key] = mirrorRef{hash: rec.Checkpoint, cycle: rec.Cycle}
		}
	case "mirror-drop":
		delete(r.mirrors, rec.Key)
	}
}

func (r *coordReplay) sweep(id string) *replayedSweep {
	sw := r.sweeps[id]
	if sw == nil {
		sw = &replayedSweep{id: id, cells: make(map[string]replayedCell)}
		r.sweeps[id] = sw
	}
	return sw
}

// records is the compacted record stream for the replayed state: one join
// per known worker, one mirror per live blob, sweep + cell records for
// unfinished sweeps, and a single sweep-end line (totals only) per ended
// one — replaying it reconstructs the same coordReplay.
func (r *coordReplay) records() []coordRecord {
	var recs []coordRecord
	for _, id := range sortedKeys(r.workers) {
		recs = append(recs, coordRecord{Op: "join", Worker: id, Addr: r.workers[id]})
	}
	for _, key := range sortedKeys(r.mirrors) {
		m := r.mirrors[key]
		recs = append(recs, coordRecord{Op: "mirror", Key: key, Checkpoint: m.hash, Cycle: m.cycle})
	}
	for _, id := range sortedKeys(r.sweeps) {
		sw := r.sweeps[id]
		if sw.ended {
			recs = append(recs, coordRecord{Op: "sweep-end", Sweep: id, Done: sw.done, Failed: sw.failed})
			continue
		}
		recs = append(recs, coordRecord{Op: "sweep", Sweep: id, Tenant: sw.tenant, Request: sw.request})
		for _, key := range sortedKeys(sw.cells) {
			c := sw.cells[key]
			recs = append(recs, coordRecord{Op: "cell", Sweep: id, Key: key, Status: c.status, LedgerSHA256: c.ledgerSHA, Worker: c.worker})
		}
	}
	return recs
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// --- append API (all nil-safe) -------------------------------------------

func (j *coordJournal) appendJoin(id, addr string) error {
	return j.append(coordRecord{Op: "join", Worker: id, Addr: addr})
}

func (j *coordJournal) appendSweep(id, tenantName string, request []byte) error {
	return j.append(coordRecord{Op: "sweep", Sweep: id, Tenant: tenantName, Request: request})
}

func (j *coordJournal) appendCell(sweepID string, cell sweepCell, res SweepResult) error {
	return j.append(coordRecord{
		Op: "cell", Sweep: sweepID, Key: cell.key,
		Mix: cell.mix, Scenario: cell.scenario, Scheduler: cell.scheduler, Partition: cell.partition,
		Status: res.Status, LedgerSHA256: res.LedgerSHA256, Worker: res.Worker, Error: res.Error,
	})
}

func (j *coordJournal) appendSweepEnd(sweepID string, done, failed int) error {
	return j.append(coordRecord{Op: "sweep-end", Sweep: sweepID, Done: done, Failed: failed})
}

func (j *coordJournal) appendMirror(key, hash string, cycle uint64) error {
	return j.append(coordRecord{Op: "mirror", Key: key, Checkpoint: hash, Cycle: cycle})
}

func (j *coordJournal) appendMirrorDrop(key string) error {
	return j.append(coordRecord{Op: "mirror-drop", Key: key})
}

func (j *coordJournal) append(rec coordRecord) error {
	if j == nil {
		return nil
	}
	return j.log.Append(rec)
}

// Close releases the journal file. Safe on nil.
func (j *coordJournal) Close() error {
	if j == nil {
		return nil
	}
	return j.log.Close()
}
