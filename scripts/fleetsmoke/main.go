// Command fleetsmoke is the CI drill for dbpserved's fleet mode: it boots a
// real coordinator plus three real worker daemons and asserts the fleet
// contracts that need real processes — workers and a coordinator
// SIGKILLed under a live fleet — on the worker-mode wiring that
// cmd/dbpserved's TestRunWorkerMode also pins in process (internal/fleet's
// tests pin the rest):
//
//   - a batch sweep POSTed to the coordinator streams one NDJSON line per
//     cell plus a summary, every cell lands "done", and each cell's
//     ledger_sha256 is byte-identical to a single-node reference daemon's
//     ledger for the same request;
//   - the sweep costs exactly one simulation per unique cell fleet-wide
//     (sum of dbpserved_runs_executed_total across workers), and re-running
//     it is all cache hits with zero new simulations;
//   - the same run POSTed directly to every worker is answered by the fleet
//     (the owner's cache, reached directly or by forwarding to the owner)
//     without any worker re-simulating — fleet-wide singleflight;
//   - a long run whose owner is SIGKILLed mid-flight is migrated: the
//     coordinator re-places it on a survivor with the latest mirrored
//     checkpoint, the run completes with a ledger byte-identical to an
//     uninterrupted single-node run, and dbpfleet_migrations_total and
//     dbpfleet_worker_up record the event;
//   - after the kill, the surviving fleet still completes a fresh sweep
//     with reference-identical ledgers (re-placement of the dead worker's
//     key range).
//
// With -chaos, the drill instead targets the fleet's resilience layer:
//
//   - the coordinator (running with -journal-dir) is SIGKILLed mid-sweep
//     and restarted on the same address over the same journal: the
//     restarted coordinator resyncs the workers, resumes the sweep from
//     its first incomplete cell, a resubmitted identical sweep completes
//     with ledgers byte-identical to the single-node reference, and the
//     fleet-wide unique-simulation count is unchanged — nothing completed
//     is ever re-simulated;
//   - a worker booted behind a network partition from the coordinator
//     (-chaos partition=<coordinator>) serves direct runs standalone in
//     degraded mode and never pollutes the coordinator's live-worker count.
//
// Usage: go run ./scripts/fleetsmoke [-chaos] /path/to/dbpserved
//
// With DRILL_ARTIFACTS=<dir> set (CI does this), every scratch directory
// and per-daemon log file is created under <dir> and left in place, so a
// failing drill can be uploaded as a workflow artifact.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"dbpsim/internal/durable"
	"dbpsim/internal/serve"
	"dbpsim/scripts/internal/drill"
)

// The sweep grid: one mix, three partition policies — three cells. Budgets
// match the repo's smoke convention (milliseconds per cell).
const (
	sweepMix  = "W4-M1"
	sweepBody = `{"mixes": ["W4-M1"], "partitions": ["none", "equal", "dbp"], "warmup": 1000, "measure": 5000}`
	cellBodyT = `{"mix": "W4-M1", "partition": "%s", "warmup": 1000, "measure": 5000}`
	// migrateBody is big enough to be mid-flight when its owner is killed
	// (checkpoint-interval 1 mirrors a blob within the first scheduler
	// quantum) yet finishes in seconds once resumed.
	migrateBody = `{"benchmarks": ["mcf-like", "gcc-like"], "seed": 7001, "partition": "dbp", "warmup": 0, "measure": 2000000}`
)

var sweepPartitions = []string{"none", "equal", "dbp"}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fleet-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("fleet-smoke: OK")
}

func run(args []string) error {
	fs := flag.NewFlagSet("fleetsmoke", flag.ContinueOnError)
	chaosMode := fs.Bool("chaos", false, "run the resilience drill (coordinator kill+restart, partitioned worker) instead of the happy-path fleet drill")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: fleetsmoke [-chaos] /path/to/dbpserved")
	}
	bin := fs.Arg(0)
	if *chaosMode {
		return runChaos(bin)
	}

	refs, err := scenarioReference(bin)
	if err != nil {
		return fmt.Errorf("single-node reference: %w", err)
	}

	f, err := startFleet(bin, 3)
	if err != nil {
		return fmt.Errorf("fleet boot: %w", err)
	}
	defer f.kill()

	if err := scenarioSweep(f, refs); err != nil {
		return fmt.Errorf("batch sweep: %w", err)
	}
	if err := scenarioSingleflight(f); err != nil {
		return fmt.Errorf("fleet singleflight: %w", err)
	}
	if err := scenarioMigration(f, refs["migrate"]); err != nil {
		return fmt.Errorf("checkpoint migration: %w", err)
	}
	if err := scenarioSurvivorSweep(f, refs); err != nil {
		return fmt.Errorf("post-kill sweep: %w", err)
	}
	return nil
}

// runChaos is the -chaos drill: a journaled coordinator killed mid-sweep
// and restarted over its journal, then a worker booted behind a network
// partition.
func runChaos(bin string) error {
	refs, err := chaosReference(bin)
	if err != nil {
		return fmt.Errorf("single-node reference: %w", err)
	}
	journal, err := drill.ScratchDir("dbpserved-fleet-coord-journal")
	if err != nil {
		return err
	}
	defer drill.Scrub(journal)

	f, err := startFleet(bin, 3, "-journal-dir", journal)
	if err != nil {
		return fmt.Errorf("fleet boot: %w", err)
	}
	defer f.kill()

	if err := scenarioCoordinatorKillRestart(bin, f, journal, refs); err != nil {
		return fmt.Errorf("coordinator kill+restart: %w", err)
	}
	if err := scenarioPartitionedWorker(bin, f); err != nil {
		return fmt.Errorf("partitioned worker: %w", err)
	}
	return nil
}

// --- scenarios -----------------------------------------------------------

// scenarioReference captures, on one untouched single-node daemon, the
// canonical ledger for every sweep cell and for the migration run — the
// byte-identity yardstick for everything the fleet answers.
func scenarioReference(bin string) (map[string][]byte, error) {
	d, err := drill.Start(bin, "ref")
	if err != nil {
		return nil, err
	}
	defer d.Kill()
	bodies := map[string]string{"migrate": migrateBody}
	for _, part := range sweepPartitions {
		bodies[part] = fmt.Sprintf(cellBodyT, part)
	}
	refs, err := postAll(d, bodies)
	if err != nil {
		return nil, err
	}
	if err := d.Drain(60 * time.Second); err != nil {
		return nil, err
	}
	fmt.Println("fleet-smoke: reference: single-node ledgers captured")
	return refs, nil
}

// postAll posts every named run body to d at once, so the daemon's worker
// pool runs them side by side, and returns each ledger under its name.
func postAll(d *drill.Daemon, bodies map[string]string) (map[string][]byte, error) {
	type answer struct {
		name   string
		ledger []byte
		err    error
	}
	answers := make(chan answer, len(bodies))
	for name, body := range bodies {
		go func() {
			status, ledger, _, err := d.Post("/v1/runs?timeout=120s", body)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("run %s: status %d: %s", name, status, ledger)
			}
			answers <- answer{name, ledger, err}
		}()
	}
	refs := make(map[string][]byte, len(bodies))
	var firstErr error
	for range bodies {
		a := <-answers
		if a.err != nil && firstErr == nil {
			firstErr = a.err
		}
		refs[a.name] = a.ledger
	}
	return refs, firstErr
}

// scenarioSweep drives the batch sweep and checks completeness, byte
// identity against the reference, and the one-simulation-per-cell economy
// on the fleet dbpserved's -coordinator and -join modes assemble; its
// cached cells and reference ledgers are what the SIGKILL steps after it
// build on.
func scenarioSweep(f *fleetHarness, refs map[string][]byte) error {
	results, summary, err := f.sweep(sweepBody)
	if err != nil {
		return err
	}
	if summary.Cells != 3 || summary.Done != 3 || summary.Failed != 0 {
		return fmt.Errorf("summary = %+v, want 3/3 done", summary)
	}
	if err := checkCells(results, refs); err != nil {
		return err
	}

	executed, err := f.totalExecuted()
	if err != nil {
		return err
	}
	if executed != 3 {
		return fmt.Errorf("3 cells cost %v simulations fleet-wide, want exactly 3", executed)
	}

	// Same sweep again: all cache hits, zero new simulations.
	results, summary, err = f.sweep(sweepBody)
	if err != nil {
		return err
	}
	if summary.Done != 3 {
		return fmt.Errorf("re-sweep summary = %+v", summary)
	}
	for _, res := range results {
		if res.Cache != "hit" {
			return fmt.Errorf("re-swept cell %s/%s answered cache=%q, want hit", res.Mix, res.Partition, res.Cache)
		}
	}
	if again, err := f.totalExecuted(); err != nil {
		return err
	} else if again != executed {
		return fmt.Errorf("re-sweep re-simulated: %v -> %v", executed, again)
	}
	fmt.Println("fleet-smoke: sweep: 3 cells done, ledgers reference-identical, 3 simulations total")
	return nil
}

// scenarioSingleflight POSTs one already-swept cell directly to every
// worker: each answer must come from the fleet's caches, never from a new
// simulation. It is the fleet-wide view, across three real workers, of the
// consult-hook wiring that TestRunWorkerMode checks on two in-process ones.
func scenarioSingleflight(f *fleetHarness) error {
	before, err := f.totalExecuted()
	if err != nil {
		return err
	}
	body := fmt.Sprintf(cellBodyT, "dbp")
	for id, d := range f.workers {
		status, ledger, _, err := d.Post("/v1/runs", body)
		if err != nil {
			return fmt.Errorf("direct post to %s: %w", id, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("direct post to %s: status %d: %s", id, status, ledger)
		}
	}
	after, err := f.totalExecuted()
	if err != nil {
		return err
	}
	if after != before {
		return fmt.Errorf("direct posts re-simulated: %v -> %v", before, after)
	}
	fmt.Println("fleet-smoke: singleflight: identical requests to every worker, zero new simulations")
	return nil
}

// scenarioMigration SIGKILLs the owner of a long run mid-flight and
// requires the coordinator to finish it elsewhere from the mirrored
// checkpoint, byte-identical to the uninterrupted reference.
func scenarioMigration(f *fleetHarness, reference []byte) error {
	key, _, apiErr := serve.ResolveRequest([]byte(migrateBody), 0)
	if apiErr != nil {
		return fmt.Errorf("resolve migration body: %s", apiErr.Message)
	}

	type reply struct {
		status int
		data   []byte
		err    error
	}
	replyCh := make(chan reply, 1)
	go func() {
		status, data, _, err := f.coord.Post("/v1/runs", migrateBody)
		replyCh <- reply{status, data, err}
	}()

	// Wait for the coordinator to hold a mirrored checkpoint for the run,
	// then kill the worker that owns the key.
	victim, err := f.waitMirroredCheckpoint(key, 60*time.Second)
	if err != nil {
		return err
	}
	vd, ok := f.workers[victim]
	if !ok {
		return fmt.Errorf("ring names unknown owner %q", victim)
	}
	vd.Kill()
	delete(f.workers, victim)
	fmt.Printf("fleet-smoke: migration: SIGKILLed owner %s mid-run\n", victim)

	r := <-replyCh
	if r.err != nil {
		return fmt.Errorf("migrated run failed in transit: %w", r.err)
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("migrated run: status %d: %s", r.status, r.data)
	}
	if string(r.data) != string(reference) {
		return fmt.Errorf("migrated ledger differs from the uninterrupted single-node reference (%d vs %d bytes)",
			len(r.data), len(reference))
	}

	m, err := f.coord.Metrics()
	if err != nil {
		return err
	}
	if m["dbpfleet_migrations_total"] < 1 {
		return fmt.Errorf("dbpfleet_migrations_total = %v, want >= 1", m["dbpfleet_migrations_total"])
	}
	if up := m[fmt.Sprintf("dbpfleet_worker_up{worker=%q}", victim)]; up != 0 {
		return fmt.Errorf("dbpfleet_worker_up for the killed worker = %v, want 0", up)
	}
	fmt.Println("fleet-smoke: migration: run resumed on a survivor, ledger byte-identical, migration counted")
	return nil
}

// scenarioSurvivorSweep re-runs the sweep on the two-worker fleet: the dead
// worker's key range must have been re-placed, every cell completes, and
// the ledgers still match the reference.
func scenarioSurvivorSweep(f *fleetHarness, refs map[string][]byte) error {
	results, summary, err := f.sweep(sweepBody)
	if err != nil {
		return err
	}
	if summary.Done != 3 || summary.Failed != 0 {
		return fmt.Errorf("survivor sweep summary = %+v, want 3 done", summary)
	}
	if err := checkCells(results, refs); err != nil {
		return err
	}
	fmt.Println("fleet-smoke: post-kill sweep: survivors re-placed the dead worker's cells, ledgers still reference-identical")
	return nil
}

// --- chaos scenarios ------------------------------------------------------

// The chaos sweep's cells run long enough (seconds each) that SIGKILLing
// the coordinator after the first streamed result line reliably lands
// mid-sweep.
const (
	chaosSweepBody = `{"mixes": ["W4-M1"], "partitions": ["none", "equal", "dbp"], "warmup": 0, "measure": 2000000}`
	chaosCellT     = `{"mix": "W4-M1", "partition": "%s", "warmup": 0, "measure": 2000000}`
)

// chaosReference captures single-node ledgers for the chaos sweep's cells.
func chaosReference(bin string) (map[string][]byte, error) {
	d, err := drill.Start(bin, "chaos-ref")
	if err != nil {
		return nil, err
	}
	defer d.Kill()
	bodies := make(map[string]string)
	for _, part := range sweepPartitions {
		bodies[part] = fmt.Sprintf(chaosCellT, part)
	}
	refs, err := postAll(d, bodies)
	if err != nil {
		return nil, err
	}
	if err := d.Drain(60 * time.Second); err != nil {
		return nil, err
	}
	fmt.Println("fleet-smoke: chaos reference: single-node ledgers captured")
	return refs, nil
}

// scenarioCoordinatorKillRestart SIGKILLs the journaled coordinator after
// the first sweep cell streams, restarts it on the same address over the
// same journal, and requires: the interrupted stream tears without a
// summary; the restarted coordinator resumes the sweep to completion; a
// resubmitted identical sweep answers all cells with reference-identical
// ledgers; and the fleet-wide unique-simulation count is exactly one per
// cell — nothing with a journaled terminal record ever re-simulates.
func scenarioCoordinatorKillRestart(bin string, f *fleetHarness, journal string, refs map[string][]byte) error {
	coordAddr := strings.TrimPrefix(f.coord.Base, "http://")

	received := 0
	_, err := streamSweep(f.coord.Base, chaosSweepBody, func(sweepResult) {
		received++
		if received == 1 {
			f.coord.Kill()
			fmt.Println("fleet-smoke: chaos: SIGKILLed coordinator after the first streamed cell")
		}
	})
	switch {
	case err == nil:
		return fmt.Errorf("sweep completed (summary line seen) before the kill landed; mid-sweep interruption never happened")
	case !errors.Is(err, errNoSummary):
		return err
	}
	fmt.Printf("fleet-smoke: chaos: sweep stream tore after %d cell line(s), no summary\n", received)

	// Restart on the same address over the same journal. The workers still
	// point at this address; Go listeners set SO_REUSEADDR, so the port
	// rebinds immediately.
	coord2, err := drill.StartAt(bin, "coord-restarted", coordAddr, "-coordinator", "-journal-dir", journal)
	if err != nil {
		return fmt.Errorf("coordinator restart: %w", err)
	}
	f.coord = coord2
	fmt.Println("fleet-smoke: chaos: coordinator restarted over its journal")

	// The restarted coordinator must resync the workers and finish the
	// sweep's remaining cells on its own.
	var m map[string]float64
	err = drill.Await(120*time.Second, func() (bool, error) {
		var err error
		if m, err = f.coord.Metrics(); err != nil {
			return false, nil
		}
		if failed := m["dbpfleet_sweep_cells_failed_total"]; failed > 0 {
			return false, fmt.Errorf("resumed sweep failed cells: %v", failed)
		}
		return m["dbpfleet_sweep_cells_done_total"] == float64(len(sweepPartitions)), nil
	})
	if err != nil {
		return fmt.Errorf("restarted coordinator never finished the interrupted sweep (cells done: %v): %w",
			m["dbpfleet_sweep_cells_done_total"], err)
	}
	fmt.Println("fleet-smoke: chaos: restarted coordinator resumed the sweep to completion")

	// Resubmitting the identical sweep is the client's recovery path: every
	// cell must answer, byte-identical to the single-node reference.
	results, summary, err := f.sweep(chaosSweepBody)
	if err != nil {
		return err
	}
	if summary.Done != len(sweepPartitions) || summary.Failed != 0 {
		return fmt.Errorf("resubmitted sweep summary = %+v, want %d done", summary, len(sweepPartitions))
	}
	if err := checkCells(results, refs); err != nil {
		return err
	}

	// The hard invariant: across kill, restart, resume, and resubmission the
	// fleet paid exactly one simulation per unique cell.
	executed, err := f.totalExecuted()
	if err != nil {
		return err
	}
	if executed != float64(len(sweepPartitions)) {
		return fmt.Errorf("kill+restart changed the unique-simulation count: %v executed, want %d",
			executed, len(sweepPartitions))
	}
	fmt.Println("fleet-smoke: chaos: resubmitted sweep reference-identical, unique-simulation count unchanged")
	return nil
}

// scenarioPartitionedWorker boots a fourth worker behind an injected
// network partition from the coordinator: it must come up degraded, serve
// direct runs standalone, and never appear in the coordinator's live-worker
// count: the same -chaos wiring and degraded start TestRunWorkerMode checks
// in process, here against the journaled coordinator the kill-restart step
// left running. TestWorkerDegradedMode covers the outage of a worker that
// has joined.
func scenarioPartitionedWorker(bin string, f *fleetHarness) error {
	coordHost := strings.TrimPrefix(f.coord.Base, "http://")
	d, err := drill.Start(bin, "w4-partitioned",
		"-join", f.coord.Base,
		"-worker-id", "w4",
		"-heartbeat", "100ms",
		"-checkpoint-interval", "1",
		"-workers", "2",
		"-chaos", "partition="+coordHost,
		"-chaos-allow",
	)
	if err != nil {
		return err
	}
	defer d.Kill()

	var m map[string]float64
	err = drill.Await(30*time.Second, func() (bool, error) {
		var err error
		m, err = d.Metrics()
		return err == nil && m["dbpfleet_degraded"] == 1, nil
	})
	if err != nil {
		return fmt.Errorf("partitioned worker never entered degraded mode: %w", err)
	}
	if m["dbpfleet_heartbeat_failures_total"] < 1 {
		return fmt.Errorf("degraded without counted heartbeat failures: %v", m)
	}
	fmt.Println("fleet-smoke: chaos: partitioned worker came up degraded")

	// Standalone serving: a direct run on the partitioned worker answers.
	status, ledger, _, err := d.Post("/v1/runs?timeout=120s", fmt.Sprintf(cellBodyT, "equal"))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("degraded worker answered %d to a direct run: %s", status, ledger)
	}

	// The coordinator never saw it: the live-worker count is unchanged.
	var h struct {
		Live int `json:"workers_live"`
	}
	hstatus, data, err := f.coord.Get("/healthz")
	if err != nil || hstatus != http.StatusOK || json.Unmarshal(data, &h) != nil {
		return fmt.Errorf("coordinator healthz: status %d, err %v", hstatus, err)
	}
	if h.Live != len(f.workers) {
		return fmt.Errorf("coordinator sees %d live workers, want %d (the partitioned worker must never join)", h.Live, len(f.workers))
	}
	fmt.Println("fleet-smoke: chaos: partitioned worker served standalone, never joined the ring")
	return nil
}

// checkCells verifies a sweep's results cover every partition exactly once
// with ledgers hash-identical to the single-node reference.
func checkCells(results []sweepResult, refs map[string][]byte) error {
	seen := make(map[string]bool)
	for _, res := range results {
		if res.Status != "done" {
			return fmt.Errorf("cell %s/%s failed: %s", res.Mix, res.Partition, res.Error)
		}
		ref, ok := refs[res.Partition]
		if !ok || seen[res.Partition] {
			return fmt.Errorf("unexpected or duplicate cell partition %q", res.Partition)
		}
		seen[res.Partition] = true
		if res.LedgerSHA256 != durable.Hash(ref) {
			return fmt.Errorf("cell %s/%s ledger_sha256 differs from the single-node reference", res.Mix, res.Partition)
		}
		if res.Worker == "" {
			return fmt.Errorf("cell %s/%s carries no worker attribution", res.Mix, res.Partition)
		}
	}
	if len(seen) != len(sweepPartitions) {
		return fmt.Errorf("sweep covered %d cells, want %d", len(seen), len(sweepPartitions))
	}
	return nil
}

// --- fleet harness -------------------------------------------------------

type fleetHarness struct {
	coord   *drill.Daemon
	workers map[string]*drill.Daemon // worker id → daemon
}

// startFleet boots one coordinator (plus any extra coordinator flags, e.g.
// -journal-dir) and n workers (checkpointing every scheduler quantum,
// heartbeating fast) and waits until the coordinator reports the whole
// fleet live and every worker has a converged membership view.
func startFleet(bin string, n int, coordExtra ...string) (*fleetHarness, error) {
	coord, err := drill.Start(bin, "coord", append([]string{"-coordinator"}, coordExtra...)...)
	if err != nil {
		return nil, err
	}
	f := &fleetHarness{coord: coord, workers: make(map[string]*drill.Daemon)}
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("w%d", i)
		d, err := drill.Start(bin, id,
			"-join", coord.Base,
			"-worker-id", id,
			"-heartbeat", "250ms",
			"-checkpoint-interval", "1",
			"-workers", "2",
		)
		if err != nil {
			f.kill()
			return nil, err
		}
		f.workers[id] = d
	}

	// Converged: coordinator sees n live workers, and every worker's metrics
	// page is serving (its join completed — dbpserved starts heartbeats only
	// after a successful first join).
	var last []byte
	err = drill.Await(30*time.Second, func() (bool, error) {
		var h struct {
			Live int `json:"workers_live"`
		}
		status, data, err := coord.Get("/healthz")
		last = data
		return err == nil && status == http.StatusOK && json.Unmarshal(data, &h) == nil && h.Live == n, nil
	})
	if err != nil {
		f.kill()
		return nil, fmt.Errorf("fleet never converged to %d live workers (last: %s): %w", n, last, err)
	}
	// Give every worker one heartbeat round so its own membership snapshot
	// includes the whole fleet (join responses carry the member list).
	time.Sleep(600 * time.Millisecond)
	fmt.Printf("fleet-smoke: fleet up: coordinator + %d workers\n", n)
	return f, nil
}

func (f *fleetHarness) kill() {
	for _, d := range f.workers {
		d.Kill()
	}
	f.coord.Kill()
}

// totalExecuted sums dbpserved_runs_executed_total across the live fleet —
// the number of genuine simulations the fleet has paid for.
func (f *fleetHarness) totalExecuted() (float64, error) {
	var total float64
	for id, d := range f.workers {
		m, err := d.Metrics()
		if err != nil {
			return 0, fmt.Errorf("worker %s metrics: %w", id, err)
		}
		total += m["dbpserved_runs_executed_total"]
	}
	return total, nil
}

// sweepResult mirrors the NDJSON line schema of internal/fleet.SweepResult.
type sweepResult struct {
	Mix          string          `json:"mix"`
	Partition    string          `json:"partition"`
	Status       string          `json:"status"`
	Worker       string          `json:"worker"`
	Cache        string          `json:"cache"`
	LedgerSHA256 string          `json:"ledger_sha256"`
	Error        json.RawMessage `json:"error"`
}

type sweepSummary struct {
	Summary bool `json:"summary"`
	Cells   int  `json:"cells"`
	Done    int  `json:"done"`
	Failed  int  `json:"failed"`
}

// sweep POSTs the sweep body to the coordinator and collects every cell
// line of the NDJSON stream, requiring a clean summary line.
func (f *fleetHarness) sweep(body string) ([]sweepResult, *sweepSummary, error) {
	var results []sweepResult
	summary, err := streamSweep(f.coord.Base, body, func(res sweepResult) {
		results = append(results, res)
	})
	if err != nil {
		return nil, nil, err
	}
	return results, summary, nil
}

// errNoSummary reports a sweep stream that ended or tore before its
// summary line.
var errNoSummary = errors.New("sweep stream ended without a summary line")

// streamSweep POSTs a sweep body to the coordinator at base and calls
// onCell for each cell line of the NDJSON stream as it arrives. It returns
// the summary line, or an error wrapping errNoSummary when the stream ends
// without one.
func streamSweep(base, body string, onCell func(sweepResult)) (*sweepSummary, error) {
	resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("sweep: status %d: %s", resp.StatusCode, data)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	for sc.Scan() {
		var line struct {
			sweepResult
			sweepSummary
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("bad stream line %.120q: %w", sc.Text(), err)
		}
		if line.Summary {
			return &line.sweepSummary, nil
		}
		onCell(line.sweepResult)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", errNoSummary, err)
	}
	return nil, errNoSummary
}

// waitMirroredCheckpoint polls GET /v1/fleet/ring until the coordinator
// holds a checkpoint blob for key, returning the key's current ring owner.
func (f *fleetHarness) waitMirroredCheckpoint(key string, timeout time.Duration) (owner string, err error) {
	err = drill.Await(timeout, func() (bool, error) {
		status, data, err := f.coord.Get("/v1/fleet/ring")
		if err != nil || status != http.StatusOK {
			return false, fmt.Errorf("ring probe: status %d: %v", status, err)
		}
		var ring struct {
			Checkpoints []struct {
				Key   string `json:"key"`
				Owner string `json:"owner"`
			} `json:"checkpoints"`
		}
		if err := json.Unmarshal(data, &ring); err != nil {
			return false, err
		}
		for _, ck := range ring.Checkpoints {
			if ck.Key == key && ck.Owner != "" {
				owner = ck.Owner
				return true, nil
			}
		}
		return false, nil
	})
	if err != nil {
		return "", fmt.Errorf("no checkpoint mirrored for the migration run: %w", err)
	}
	return owner, nil
}
