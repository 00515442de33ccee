// Command chaossmoke is the CI chaos drill for dbpserved: it drives the
// real daemon binary through hostile scenarios — injected worker panics,
// abandoned runs, a SIGKILL mid-job with a restart — and asserts the
// resilience contracts hold end to end:
//
//   - -chaos without -chaos-allow is refused (fault injection can never be
//     enabled by a stray flag);
//   - a worker panic becomes a structured failed response while /healthz
//     stays 200 and later runs succeed, and ledgers produced under
//     injection are byte-identical to an uninjected daemon's;
//   - a sync run abandoned via ?timeout= is canceled, freeing its worker
//     for the next request within moments, with runs_canceled_total
//     incremented;
//   - after SIGKILL + restart over the same -journal-dir, finished async
//     jobs still answer GET /v1/runs/{id} with byte-identical ledgers
//     (and re-seed the result cache), while the job killed mid-run is
//     requeued at its original id instead of being lost;
//   - a job killed after writing checkpoints resumes from its latest
//     checkpoint on restart and finishes with a ledger byte-identical to
//     an uninterrupted reference run (resumed_runs_total = 1);
//   - when every checkpoint blob is corrupted before the restart, the
//     requeued job falls back to a clean cycle-0 rerun (checkpoint errors
//     counted, nothing resumed) and still produces the reference ledger;
//   - under a -tenants config, a greedy batch tenant flooding the queue
//     cannot starve an interactive tenant (weighted-fair queueing), its
//     over-budget submission is refused with the billed estimate plus a
//     Retry-After refill hint, and a SIGKILL + restart preserves both the
//     per-tenant attribution of interrupted jobs and the spent quota.
//
// Usage: go run ./scripts/chaossmoke [-run REGEX] /path/to/dbpserved
// (-run filters scenarios by name, e.g. -run tenants)
//
// With DRILL_ARTIFACTS=<dir> set (CI does this), every scratch directory —
// journals, checkpoint blobs, per-daemon log files — is created under <dir>
// and left in place instead of being cleaned up, so a failing drill can be
// uploaded as a workflow artifact for post-mortem.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"dbpsim/scripts/internal/drill"
)

// quickBody is the fast reference run (milliseconds); bigBody's budget
// would take minutes uncanceled.
const (
	quickBody = `{"benchmarks": ["mcf-like", "gcc-like"], "warmup": 1000, "measure": 5000}`
	bigBody   = `{"benchmarks": ["mcf-like", "gcc-like"], "seed": 9001, "warmup": 0, "measure": 500000000}`
)

// drainTimeout bounds every SIGTERM drain the drill requires to exit 0.
const drainTimeout = 60 * time.Second

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "chaos-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("chaos-smoke: OK")
}

func run(args []string) error {
	fs := flag.NewFlagSet("chaossmoke", flag.ContinueOnError)
	runPat := fs.String("run", "", "only run scenarios whose name matches this regexp")
	timeout := fs.Duration("timeout", 10*time.Minute, "hard deadline for the whole drill; a hung scenario fails instead of wedging CI (0 = no deadline)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: chaossmoke [-run REGEX] [-timeout D] /path/to/dbpserved")
	}
	bin := fs.Arg(0)
	if *timeout > 0 {
		// A watchdog, not a context: scenarios block in straight-line HTTP
		// and process waits, so a wedged daemon would otherwise hang the
		// drill (and its CI job) forever.
		time.AfterFunc(*timeout, func() {
			fmt.Fprintf(os.Stderr, "chaos-smoke: FAIL: drill exceeded -timeout %v; a scenario is wedged\n", *timeout)
			os.Exit(1)
		})
	}
	var filter *regexp.Regexp
	if *runPat != "" {
		re, err := regexp.Compile(*runPat)
		if err != nil {
			return fmt.Errorf("bad -run pattern: %w", err)
		}
		filter = re
	}

	// Shared prerequisites (an uninjected baseline ledger, an uninterrupted
	// resume reference) are computed lazily so a -run filter skips the ones
	// its scenarios never need.
	var baseline, reference []byte
	getBaseline := func() ([]byte, error) {
		if baseline == nil {
			b, err := scenarioBaseline(bin)
			if err != nil {
				return nil, fmt.Errorf("baseline: %w", err)
			}
			baseline = b
		}
		return baseline, nil
	}
	getReference := func() ([]byte, error) {
		if reference == nil {
			r, err := scenarioResumeReference(bin)
			if err != nil {
				return nil, fmt.Errorf("resume reference: %w", err)
			}
			reference = r
		}
		return reference, nil
	}

	scenarios := []struct {
		name string
		fn   func() error
	}{
		{"chaos-gate", func() error { return scenarioChaosGate(bin) }},
		{"panic-isolation", func() error {
			b, err := getBaseline()
			if err != nil {
				return err
			}
			return scenarioPanic(bin, b)
		}},
		{"timeout-cancellation", func() error { return scenarioTimeout(bin) }},
		{"restart-durability", func() error {
			b, err := getBaseline()
			if err != nil {
				return err
			}
			return scenarioRestart(bin, b)
		}},
		{"checkpoint-resume", func() error {
			r, err := getReference()
			if err != nil {
				return err
			}
			return scenarioResume(bin, r)
		}},
		{"corrupt-checkpoint", func() error {
			r, err := getReference()
			if err != nil {
				return err
			}
			return scenarioCorruptCheckpoint(bin, r)
		}},
		{"tenants", func() error { return scenarioTenants(bin) }},
	}
	ran := 0
	for _, sc := range scenarios {
		if filter != nil && !filter.MatchString(sc.name) {
			continue
		}
		ran++
		fmt.Println("chaos-smoke: scenario", sc.name)
		if err := sc.fn(); err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
	}
	if ran == 0 {
		return fmt.Errorf("-run %q matched no scenarios", *runPat)
	}
	return nil
}

// --- scenarios -----------------------------------------------------------

// scenarioChaosGate: -chaos without -chaos-allow must be refused at
// startup.
func scenarioChaosGate(bin string) error {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-chaos", "panic=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return fmt.Errorf("daemon accepted -chaos without -chaos-allow")
	}
	if !strings.Contains(string(out), "chaos-allow") {
		return fmt.Errorf("refusal does not name -chaos-allow: %s", out)
	}
	fmt.Println("chaos-smoke: gate: -chaos refused without -chaos-allow")
	return nil
}

// scenarioBaseline runs one clean daemon and captures the uninjected
// ledger every later scenario compares against.
func scenarioBaseline(bin string) ([]byte, error) {
	d, err := drill.Start(bin, "chaos")
	if err != nil {
		return nil, err
	}
	defer d.Kill()
	status, ledger, _, err := d.Post("/v1/runs", quickBody)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("baseline run: status %d: %s", status, ledger)
	}
	if err := d.Drain(drainTimeout); err != nil {
		return nil, err
	}
	fmt.Println("chaos-smoke: baseline: clean ledger captured")
	return ledger, nil
}

// scenarioPanic: with panic=2 injected, the clean first run is
// byte-identical to the baseline, the second run fails as a structured
// panic while the daemon stays healthy, and the third run succeeds.
func scenarioPanic(bin string, baseline []byte) error {
	d, err := drill.Start(bin, "chaos", "-chaos", "panic=2", "-chaos-allow")
	if err != nil {
		return err
	}
	defer d.Kill()

	status, ledger, _, err := d.Post("/v1/runs", quickBody)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("run under injection: status %d: %s", status, ledger)
	}
	if string(ledger) != string(baseline) {
		return fmt.Errorf("ledger under injection differs from the uninjected baseline")
	}

	status, body, _, err := d.Post("/v1/runs", seeded(9101))
	if err != nil {
		return err
	}
	if status != http.StatusInternalServerError {
		return fmt.Errorf("panicked run: status %d: %s", status, body)
	}
	var doc struct {
		Status string `json:"status"`
		Error  struct {
			Code      string `json:"code"`
			Retryable bool   `json:"retryable"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("panic body is not structured: %s", body)
	}
	if doc.Status != "failed" || doc.Error.Code != "panic" || doc.Error.Retryable {
		return fmt.Errorf("panic doc = %s", body)
	}

	if status, body, err := d.Get("/healthz"); err != nil || status != http.StatusOK {
		return fmt.Errorf("healthz after panic: status %d: %s (%v)", status, body, err)
	}
	m, err := d.Metrics()
	if err != nil {
		return err
	}
	if m["dbpserved_runs_panicked_total"] != 1 {
		return fmt.Errorf("runs_panicked_total = %v, want 1", m["dbpserved_runs_panicked_total"])
	}

	status, body, _, err = d.Post("/v1/runs", seeded(9102))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("run after panic: status %d: %s", status, body)
	}
	if err := d.Drain(drainTimeout); err != nil {
		return err
	}
	fmt.Println("chaos-smoke: panic: isolated, healthz 200, ledgers byte-identical")
	return nil
}

// scenarioTimeout: a huge run abandoned via ?timeout= is canceled and the
// single worker is reusable right away.
func scenarioTimeout(bin string) error {
	d, err := drill.Start(bin, "chaos", "-workers", "1")
	if err != nil {
		return err
	}
	defer d.Kill()

	status, body, _, err := d.Post("/v1/runs?timeout=300ms", bigBody)
	if err != nil {
		return err
	}
	if status != http.StatusGatewayTimeout {
		return fmt.Errorf("abandoned run: status %d: %s", status, body)
	}
	// The next quick run must get the (sole) worker promptly.
	status, body, _, err = d.Post("/v1/runs?timeout=60s", quickBody)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("run after cancellation: status %d: %s", status, body)
	}
	if err := drill.Await(15*time.Second, func() (bool, error) {
		m, err := d.Metrics()
		return m["dbpserved_runs_canceled_total"] >= 1, err
	}); err != nil {
		return fmt.Errorf("runs_canceled_total never incremented: %w", err)
	}
	if err := d.Drain(drainTimeout); err != nil {
		return err
	}
	fmt.Println("chaos-smoke: timeout: abandoned run canceled, worker slot reused")
	return nil
}

// scenarioRestart: SIGKILL the daemon with one finished and one running
// async job, restart over the same journal, and require the finished job's
// ledger back byte-identical and the killed job requeued at its original id
// (the journaled submit record carries the request body) instead of being
// reported as a terminal failure.
func scenarioRestart(bin string, baseline []byte) error {
	jdir, err := drill.ScratchDir("dbpserved-chaos-journal")
	if err != nil {
		return err
	}
	defer drill.Scrub(jdir)

	d, err := drill.Start(bin, "chaos", "-journal-dir", jdir, "-workers", "1")
	if err != nil {
		return err
	}
	defer d.Kill()

	// Async quick job → done.
	status, body, _, err := d.Post("/v1/runs?async=1", quickBody)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("async submit: status %d: %s", status, body)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		return err
	}
	doneID := acc.ID
	ledger, err := pollDone(d, doneID, 60*time.Second)
	if err != nil {
		return err
	}
	if string(ledger) != string(baseline) {
		return fmt.Errorf("async ledger differs from baseline before the kill")
	}

	// Async huge job → running when we pull the plug.
	status, body, _, err = d.Post("/v1/runs?async=1", bigBody)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("big async submit: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		return err
	}
	lostID := acc.ID
	if err := waitStatus(d, lostID, "running", 15*time.Second); err != nil {
		return err
	}

	// The plug.
	d.Kill()

	// Restart over the same journal. The short drain grace keeps the final
	// SIGTERM bounded: the requeued multi-minute job is drain-canceled after
	// 2s (checkpoint-then-release) instead of running to completion.
	d2, err := drill.Start(bin, "chaos", "-journal-dir", jdir, "-workers", "1", "-drain-grace", "2s")
	if err != nil {
		return err
	}
	defer d2.Kill()

	status, body, err = d2.Get("/v1/runs/" + doneID)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("restored job: status %d: %s", status, body)
	}
	if string(body) != string(ledger) {
		return fmt.Errorf("restored ledger differs from the pre-kill bytes")
	}

	// The killed job is requeued live at its original id, not failed.
	status, body, err = d2.Get("/v1/runs/" + lostID)
	if err != nil {
		return err
	}
	var doc struct {
		Status string `json:"status"`
	}
	if status != http.StatusAccepted || json.Unmarshal(body, &doc) != nil {
		return fmt.Errorf("requeued job: status %d: %s", status, body)
	}
	if doc.Status != "queued" && doc.Status != "running" {
		return fmt.Errorf("requeued job status = %q, want queued or running: %s", doc.Status, body)
	}

	// The journaled result re-seeds the cache: no re-simulation needed.
	status, body, hdr, err := d2.Post("/v1/runs", quickBody)
	if err != nil {
		return err
	}
	if cache := hdr.Get("X-Cache"); status != http.StatusOK || cache != "hit" {
		return fmt.Errorf("restored cache: status %d, X-Cache %q (want 200/hit)", status, cache)
	}
	if string(body) != string(baseline) {
		return fmt.Errorf("restored cached ledger differs from baseline")
	}
	if err := d2.Drain(drainTimeout); err != nil {
		return err
	}
	fmt.Println("chaos-smoke: restart: finished job preserved byte-identical, killed job requeued")
	return nil
}

// resumeBody is the prop for the checkpoint scenarios: big enough to write
// several checkpoints before the kill (with -checkpoint-interval 1 the
// effective period is one 250k-cycle scheduler quantum), small enough that
// the resumed remainder finishes in seconds.
const resumeBody = `{"benchmarks": ["mcf-like", "gcc-like"], "seed": 9301, "warmup": 0, "measure": 2000000}`

// scenarioResumeReference captures the uninterrupted ledger for resumeBody
// on a journal-less daemon — the byte-identity yardstick for both
// checkpoint scenarios.
func scenarioResumeReference(bin string) ([]byte, error) {
	d, err := drill.Start(bin, "chaos")
	if err != nil {
		return nil, err
	}
	defer d.Kill()
	status, ledger, _, err := d.Post("/v1/runs?timeout=120s", resumeBody)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("reference run: status %d: %s", status, ledger)
	}
	if err := d.Drain(drainTimeout); err != nil {
		return nil, err
	}
	fmt.Println("chaos-smoke: resume reference: uninterrupted ledger captured")
	return ledger, nil
}

// scenarioResume is the headline checkpoint drill: kill the daemon after it
// has journaled checkpoints for a running job, restart over the same
// journal, and require the job to resume from its latest checkpoint and
// finish with the reference run's exact bytes.
func scenarioResume(bin string, reference []byte) error {
	jdir, err := drill.ScratchDir("dbpserved-chaos-ckpt")
	if err != nil {
		return err
	}
	defer drill.Scrub(jdir)

	d, id, err := startInterruptedRun(bin, jdir, 2)
	if err != nil {
		return err
	}
	d.Kill()

	d2, err := drill.Start(bin, "chaos", "-journal-dir", jdir, "-workers", "1", "-checkpoint-interval", "1")
	if err != nil {
		return err
	}
	defer d2.Kill()
	ledger, err := pollDone(d2, id, 180*time.Second)
	if err != nil {
		return fmt.Errorf("resumed job: %w", err)
	}
	if string(ledger) != string(reference) {
		return fmt.Errorf("resumed ledger differs from the uninterrupted reference (%d vs %d bytes)", len(ledger), len(reference))
	}
	m, err := d2.Metrics()
	if err != nil {
		return err
	}
	if m["dbpserved_resumed_runs_total"] != 1 {
		return fmt.Errorf("resumed_runs_total = %v, want 1", m["dbpserved_resumed_runs_total"])
	}
	if err := d2.Drain(drainTimeout); err != nil {
		return err
	}
	fmt.Println("chaos-smoke: resume: killed mid-run, resumed from checkpoint, ledger byte-identical")
	return nil
}

// scenarioCorruptCheckpoint: same kill, but every checkpoint blob is
// corrupted before the restart. The requeued job must fall back to a clean
// cycle-0 rerun — checkpoint errors counted, nothing resumed — and still
// produce the reference ledger.
func scenarioCorruptCheckpoint(bin string, reference []byte) error {
	jdir, err := drill.ScratchDir("dbpserved-chaos-ckpt-corrupt")
	if err != nil {
		return err
	}
	defer drill.Scrub(jdir)

	d, id, err := startInterruptedRun(bin, jdir, 1)
	if err != nil {
		return err
	}
	d.Kill()

	ckptDir := filepath.Join(jdir, "checkpoints")
	blobs, err := os.ReadDir(ckptDir)
	if err != nil {
		return err
	}
	if len(blobs) == 0 {
		return fmt.Errorf("no checkpoint blobs on disk despite checkpoints_written > 0")
	}
	for _, e := range blobs {
		if err := os.WriteFile(filepath.Join(ckptDir, e.Name()), []byte("corrupt"), 0o644); err != nil {
			return err
		}
	}

	d2, err := drill.Start(bin, "chaos", "-journal-dir", jdir, "-workers", "1", "-checkpoint-interval", "1")
	if err != nil {
		return err
	}
	defer d2.Kill()
	ledger, err := pollDone(d2, id, 180*time.Second)
	if err != nil {
		return fmt.Errorf("rerun job: %w", err)
	}
	if string(ledger) != string(reference) {
		return fmt.Errorf("cycle-0 rerun ledger differs from the reference (%d vs %d bytes)", len(ledger), len(reference))
	}
	m, err := d2.Metrics()
	if err != nil {
		return err
	}
	if m["dbpserved_resumed_runs_total"] != 0 {
		return fmt.Errorf("resumed_runs_total = %v, want 0 (corrupt blob must not resume)", m["dbpserved_resumed_runs_total"])
	}
	if m["dbpserved_checkpoint_errors_total"] < 1 {
		return fmt.Errorf("checkpoint_errors_total = %v, want >= 1", m["dbpserved_checkpoint_errors_total"])
	}
	if err := d2.Drain(drainTimeout); err != nil {
		return err
	}
	fmt.Println("chaos-smoke: corrupt checkpoint: clean cycle-0 fallback, ledger byte-identical")
	return nil
}

// startInterruptedRun launches a checkpointing daemon over jdir, submits
// resumeBody async, waits until at least minCkpts checkpoints are written,
// and returns the still-running daemon plus the job id — ready for the
// caller to pull the plug.
func startInterruptedRun(bin, jdir string, minCkpts float64) (*drill.Daemon, string, error) {
	d, err := drill.Start(bin, "chaos", "-journal-dir", jdir, "-workers", "1", "-checkpoint-interval", "1")
	if err != nil {
		return nil, "", err
	}
	status, body, _, err := d.Post("/v1/runs?async=1", resumeBody)
	if err != nil {
		d.Kill()
		return nil, "", err
	}
	if status != http.StatusAccepted {
		d.Kill()
		return nil, "", fmt.Errorf("async submit: status %d: %s", status, body)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		d.Kill()
		return nil, "", err
	}
	err = drill.Await(120*time.Second, func() (bool, error) {
		select {
		case <-d.Exited():
			return false, fmt.Errorf("daemon exited")
		default:
		}
		m, err := d.Metrics()
		return m["dbpserved_checkpoints_written_total"] >= minCkpts, err
	})
	if err != nil {
		d.Kill()
		return nil, "", fmt.Errorf("checkpoints_written never reached %v: %w", minCkpts, err)
	}
	return d, acc.ID, nil
}

func seeded(seed int) string {
	return fmt.Sprintf(`{"benchmarks": ["mcf-like", "gcc-like"], "seed": %d, "warmup": 1000, "measure": 5000}`, seed)
}

// --- multi-tenant scenario -----------------------------------------------

// tenantBody is the workload both tenants submit in the tenancy drill:
// 301000 instructions → 602000 simcycles at the admission price of 2
// cycles/instruction, big enough (hundreds of ms) that a backlog of them
// takes visible wall-clock to drain.
func tenantBody(seed int) string {
	return fmt.Sprintf(`{"benchmarks": ["mcf-like", "gcc-like"], "seed": %d, "warmup": 1000, "measure": 300000}`, seed)
}

const tenantBodyCost = 602000 // admission simcycles per tenantBody run

// greedyJobs is how many runs the greedy tenant gets in before its budget
// runs dry: its burst covers greedyJobs runs but not greedyJobs+1.
const greedyJobs = 4

// scenarioTenants is the multi-tenant drill: a greedy batch tenant
// saturating a 1-worker daemon must not starve an interactive tenant
// (weighted-fair queueing), its over-budget submission is refused with the
// billed estimate and a refill hint (cost-aware admission), and a SIGKILL
// + restart preserves both the per-tenant attribution of interrupted jobs
// and the spent quota (journal replay).
func scenarioTenants(bin string) error {
	state, err := drill.ScratchDir("dbpserved-tenants")
	if err != nil {
		return err
	}
	defer drill.Scrub(state)
	tenantsPath := filepath.Join(state, "tenants.json")
	tenantsDoc := fmt.Sprintf(`{
  "schema_version": 1,
  "tenants": [
    {"name": "vip", "key": "k-vip", "weight": 8, "lane": "interactive"},
    {"name": "greedy", "key": "k-greedy", "simcycles_per_sec": 1, "simcycles_burst": %d}
  ]
}`, greedyJobs*tenantBodyCost+tenantBodyCost/2)
	if err := os.WriteFile(tenantsPath, []byte(tenantsDoc), 0o644); err != nil {
		return err
	}
	jdir := filepath.Join(state, "journal")
	daemonFlags := []string{"-tenants", tenantsPath, "-journal-dir", jdir, "-workers", "1", "-queue", "32"}
	d, err := drill.Start(bin, "chaos", daemonFlags...)
	if err != nil {
		return err
	}
	killed := false
	defer func() {
		if !killed {
			d.Kill()
		}
	}()

	// The greedy tenant floods the single worker with batch jobs.
	var greedyIDs []string
	for i := 0; i < greedyJobs; i++ {
		status, body, _, err := d.Post("/v1/runs?async=1", tenantBody(100+i), "X-API-Key", "k-greedy")
		if err != nil {
			return err
		}
		if status != http.StatusAccepted {
			return fmt.Errorf("greedy submit %d: status %d: %s", i, status, body)
		}
		var acc struct {
			ID     string `json:"id"`
			Tenant string `json:"tenant"`
		}
		if err := json.Unmarshal(body, &acc); err != nil {
			return err
		}
		if acc.Tenant != "greedy" {
			return fmt.Errorf("greedy submit %d attributed to %q", i, acc.Tenant)
		}
		greedyIDs = append(greedyIDs, acc.ID)
	}
	// The interactive tenant submits one same-sized job into the backlog.
	status, body, _, err := d.Post("/v1/runs?lane=interactive&async=1", tenantBody(555), "X-API-Key", "k-vip")
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("interactive submit: status %d: %s", status, body)
	}
	var iacc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &iacc); err != nil {
		return err
	}

	// Cost-aware admission: greedy's next job is over budget and the
	// refusal carries the bill — a structured quota_exceeded with the
	// simcycle cost and a refill-derived Retry-After, never a bare 429.
	checkQuotaRefusal := func(d *drill.Daemon) error {
		status, body, hdr, err := d.Post("/v1/runs", tenantBody(999), "X-API-Key", "k-greedy")
		if err != nil {
			return err
		}
		retryAfter := hdr.Get("Retry-After")
		if status != http.StatusTooManyRequests {
			return fmt.Errorf("over-budget submit: status %d: %s", status, body)
		}
		var doc struct {
			Error struct {
				Code     string `json:"code"`
				Estimate struct {
					Simcycles float64 `json:"simcycles"`
				} `json:"estimate"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return fmt.Errorf("quota refusal not structured: %s", body)
		}
		if doc.Error.Code != "quota_exceeded" {
			return fmt.Errorf("refusal code %q, want quota_exceeded: %s", doc.Error.Code, body)
		}
		if doc.Error.Estimate.Simcycles != tenantBodyCost {
			return fmt.Errorf("refusal estimate %v simcycles, want %d", doc.Error.Estimate.Simcycles, tenantBodyCost)
		}
		if secs, err := strconv.Atoi(retryAfter); err != nil || secs < 1 {
			return fmt.Errorf("Retry-After %q, want a positive refill hint", retryAfter)
		}
		return nil
	}
	if err := checkQuotaRefusal(d); err != nil {
		return err
	}

	// Starvation-freedom: the interactive job finishes while most of the
	// greedy backlog is still pending — weighted-fair queueing let it jump
	// the line instead of draining FIFO behind the flood.
	if _, err := pollDone(d, iacc.ID, 120*time.Second); err != nil {
		return fmt.Errorf("interactive job under greedy flood: %w", err)
	}
	unfinished := 0
	for _, id := range greedyIDs {
		st, _, err := d.Get("/v1/runs/" + id)
		if err != nil {
			return err
		}
		if st == http.StatusAccepted {
			unfinished++
		}
	}
	if unfinished < 2 {
		return fmt.Errorf("only %d of %d greedy jobs still pending when the interactive job finished — it drained FIFO", unfinished, greedyJobs)
	}
	// The paper's fairness metric, per tenant: the interactive job waited
	// at most one residual batch job, so its (wait+service)/service
	// slowdown stays small; FIFO behind the whole flood would be ~5×.
	m, err := d.Metrics()
	if err != nil {
		return err
	}
	slow, ok := m[`dbpserved_tenant_slowdown{tenant="vip"}`]
	if !ok {
		return fmt.Errorf("no dbpserved_tenant_slowdown series for vip")
	}
	if slow >= 4 {
		return fmt.Errorf("interactive max slowdown %.2f, want < 4 (starved behind batch work?)", slow)
	}

	// Record one finished greedy ledger, then SIGKILL mid-backlog.
	firstLedger, err := pollDone(d, greedyIDs[0], 120*time.Second)
	if err != nil {
		return err
	}
	d.Kill()
	killed = true

	// Restart over the same journal and tenant config.
	d2, err := drill.Start(bin, "chaos", daemonFlags...)
	if err != nil {
		return err
	}
	defer d2.Kill()

	// Spent quota survives the kill: the journal's tenancy stamps re-debit
	// at startup, so greedy is still over budget on the fresh registry.
	if err := checkQuotaRefusal(d2); err != nil {
		return fmt.Errorf("after restart: %w", err)
	}
	// The finished job's ledger is byte-identical across the kill.
	got, err := pollDone(d2, greedyIDs[0], 60*time.Second)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, firstLedger) {
		return fmt.Errorf("greedy ledger changed across SIGKILL+restart")
	}
	// Interrupted jobs keep their tenant attribution and finish.
	for _, id := range greedyIDs[1:] {
		st, body, err := d2.Get("/v1/runs/" + id)
		if err != nil {
			return err
		}
		if st == http.StatusAccepted {
			var acc struct {
				Tenant string `json:"tenant"`
			}
			if err := json.Unmarshal(body, &acc); err == nil && acc.Tenant != "greedy" {
				return fmt.Errorf("requeued job %s attributed to %q, want greedy", id, acc.Tenant)
			}
		}
		if _, err := pollDone(d2, id, 180*time.Second); err != nil {
			return fmt.Errorf("requeued greedy job: %w", err)
		}
	}
	return d2.Drain(drainTimeout)
}

// pollDone polls an async job until it answers 200 and returns the ledger.
func pollDone(d *drill.Daemon, id string, timeout time.Duration) (ledger []byte, err error) {
	err = drill.Await(timeout, func() (bool, error) {
		status, data, err := d.Get("/v1/runs/" + id)
		if err == nil && status != http.StatusOK && status != http.StatusAccepted {
			err = fmt.Errorf("status %d: %s", status, data)
		}
		ledger = data
		return status == http.StatusOK, err
	})
	if err != nil {
		return nil, fmt.Errorf("job %s never finished: %w", id, err)
	}
	return ledger, nil
}

// waitStatus polls until the job reports the wanted lifecycle status.
func waitStatus(d *drill.Daemon, id, want string, timeout time.Duration) error {
	var last []byte
	err := drill.Await(timeout, func() (bool, error) {
		_, data, err := d.Get("/v1/runs/" + id)
		var st struct {
			Status string `json:"status"`
		}
		last = data
		return json.Unmarshal(data, &st) == nil && st.Status == want, err
	})
	if err != nil {
		return fmt.Errorf("job %s never reached %q (last: %s): %w", id, want, last, err)
	}
	return nil
}
