// Command chaossmoke is the chaos drill for dbpserved. It drives the real
// daemon binary through what only a real process can show; the in-process
// suites of internal/serve and cmd/dbpserved pin every other resilience
// contract (panic isolation, abandoned-run cancellation, restart over a
// journal, tenancy):
//
//   - -chaos without -chaos-allow stops the binary at startup with an error
//     that names -chaos-allow;
//   - a daemon SIGKILLed mid-run and restarted over the same -journal-dir
//     answers a job it had finished with the pre-kill ledger bytes, serves
//     that request again as a cache hit, and resumes the killed job from
//     its latest on-disk checkpoint to a ledger byte-identical to an
//     uninterrupted reference run (resumed_runs_total = 1);
//   - when every checkpoint blob on disk is corrupted before the restart,
//     the requeued job falls back to a clean cycle-0 rerun (checkpoint
//     errors counted, nothing resumed) and still produces the reference
//     ledger.
//
// Usage: go run ./scripts/chaossmoke [-timeout D] /path/to/dbpserved
//
// With DRILL_ARTIFACTS=<dir> set (CI does this), every scratch directory —
// journals, checkpoint blobs, per-daemon log files — is created under <dir>
// and left in place instead of being cleaned up, so a failing drill can be
// uploaded as a workflow artifact for post-mortem.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"dbpsim/scripts/internal/drill"
)

// quickBody is a run that finishes in milliseconds.
const quickBody = `{"benchmarks": ["mcf-like", "gcc-like"], "warmup": 1000, "measure": 5000}`

// resumeBody is the prop for the checkpoint scenarios: big enough to write
// several checkpoints before the kill (with -checkpoint-interval 1 the
// effective period is one 250k-cycle scheduler quantum), small enough that
// the resumed remainder finishes in seconds.
const resumeBody = `{"benchmarks": ["mcf-like", "gcc-like"], "seed": 9301, "warmup": 0, "measure": 2000000}`

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
	timeout := fs.Duration("timeout", 10*time.Minute, "hard deadline for the whole drill; a hung scenario fails instead of wedging CI (0 = no deadline)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: chaossmoke [-timeout D] /path/to/dbpserved")
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

	fmt.Println("chaos-smoke: scenario chaos-gate")
	if err := scenarioChaosGate(bin); err != nil {
		return fmt.Errorf("chaos-gate: %w", err)
	}
	reference, err := resumeReference(bin)
	if err != nil {
		return fmt.Errorf("resume reference: %w", err)
	}
	for _, sc := range []struct {
		name string
		fn   func(bin string, reference []byte) error
	}{
		{"checkpoint-resume", scenarioResume},
		{"corrupt-checkpoint", scenarioCorruptCheckpoint},
	} {
		fmt.Println("chaos-smoke: scenario", sc.name)
		if err := sc.fn(bin, reference); err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
	}
	return nil
}

// --- scenarios -----------------------------------------------------------

// scenarioChaosGate: the built binary, given -chaos without -chaos-allow,
// must refuse to start, naming -chaos-allow.
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

// resumeReference captures the uninterrupted ledger for resumeBody on a
// journal-less daemon — the byte-identity yardstick for both checkpoint
// scenarios.
func resumeReference(bin string) ([]byte, error) {
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

// scenarioResume SIGKILLs a daemon holding one finished job and one running
// job, restarts it over the same journal, and requires what the journal,
// the result store and the checkpoint blobs held at the kill to be enough:
// the finished job answers with its pre-kill bytes and re-seeds the cache,
// and the killed job resumes from its latest checkpoint to the reference
// run's exact bytes.
func scenarioResume(bin string, reference []byte) error {
	jdir, err := drill.ScratchDir("dbpserved-chaos-ckpt")
	if err != nil {
		return err
	}
	defer drill.Scrub(jdir)

	d, err := startJournaled(bin, jdir)
	if err != nil {
		return err
	}
	defer d.Kill()
	// With one worker, the long job starts only after this job's end record
	// is journaled.
	doneID, err := submit(d, quickBody)
	if err != nil {
		return err
	}
	ledger, err := pollDone(d, doneID, 60*time.Second)
	if err != nil {
		return err
	}
	id, err := interruptRun(d, 2)
	if err != nil {
		return err
	}
	d.Kill()

	d2, err := startJournaled(bin, jdir)
	if err != nil {
		return err
	}
	defer d2.Kill()
	status, body, err := d2.Get("/v1/runs/" + doneID)
	if err != nil {
		return err
	}
	if status != http.StatusOK || string(body) != string(ledger) {
		return fmt.Errorf("finished job after restart: status %d, %d bytes, want 200 and the %d pre-kill bytes", status, len(body), len(ledger))
	}
	status, body, hdr, err := d2.Post("/v1/runs", quickBody)
	if err != nil {
		return err
	}
	if cache := hdr.Get("X-Cache"); status != http.StatusOK || cache != "hit" || string(body) != string(ledger) {
		return fmt.Errorf("restored cache: status %d, X-Cache %q, %d bytes (want 200, hit, the pre-kill bytes)", status, cache, len(body))
	}

	resumed, err := pollDone(d2, id, 180*time.Second)
	if err != nil {
		return fmt.Errorf("resumed job: %w", err)
	}
	if string(resumed) != string(reference) {
		return fmt.Errorf("resumed ledger differs from the uninterrupted reference (%d vs %d bytes)", len(resumed), len(reference))
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
	fmt.Println("chaos-smoke: resume: finished job and cache restored byte-identical; killed run resumed from checkpoint, ledger byte-identical")
	return nil
}

// scenarioCorruptCheckpoint: same kill, but every checkpoint blob is
// corrupted on disk before the restart. The requeued job must fall back to
// a clean cycle-0 rerun — checkpoint errors counted, nothing resumed — and
// still produce the reference ledger.
func scenarioCorruptCheckpoint(bin string, reference []byte) error {
	jdir, err := drill.ScratchDir("dbpserved-chaos-ckpt-corrupt")
	if err != nil {
		return err
	}
	defer drill.Scrub(jdir)

	d, err := startJournaled(bin, jdir)
	if err != nil {
		return err
	}
	defer d.Kill()
	id, err := interruptRun(d, 1)
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

	d2, err := startJournaled(bin, jdir)
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

// startJournaled boots a one-worker daemon over jdir that checkpoints every
// scheduler quantum; a restart passes the same flags.
func startJournaled(bin, jdir string) (*drill.Daemon, error) {
	return drill.Start(bin, "chaos", "-journal-dir", jdir, "-workers", "1", "-checkpoint-interval", "1")
}

// interruptRun submits resumeBody async and waits until at least minCkpts
// checkpoints are written, returning the job id — ready for the caller to
// pull the plug.
func interruptRun(d *drill.Daemon, minCkpts float64) (string, error) {
	id, err := submit(d, resumeBody)
	if err != nil {
		return "", err
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
		return "", fmt.Errorf("checkpoints_written never reached %v: %w", minCkpts, err)
	}
	return id, nil
}

// submit POSTs body as an async job and returns its id.
func submit(d *drill.Daemon, body string) (string, error) {
	status, data, _, err := d.Post("/v1/runs?async=1", body)
	if err != nil {
		return "", err
	}
	if status != http.StatusAccepted {
		return "", fmt.Errorf("async submit: status %d: %s", status, data)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &acc); err != nil {
		return "", err
	}
	return acc.ID, nil
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
