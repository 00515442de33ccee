package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dbpsim"
)

func TestResolveMixNamed(t *testing.T) {
	mix, err := resolveMix("W8-M1", "")
	if err != nil {
		t.Fatal(err)
	}
	if mix.Name != "W8-M1" || mix.Cores() != 8 {
		t.Errorf("mix = %+v", mix)
	}
}

func TestResolveMixUnknownName(t *testing.T) {
	if _, err := resolveMix("W99-X", ""); err == nil {
		t.Error("unknown mix accepted")
	}
}

func TestResolveMixCustomList(t *testing.T) {
	mix, err := resolveMix("ignored", "mcf-like, lbm-like ,gcc-like")
	if err != nil {
		t.Fatal(err)
	}
	if mix.Cores() != 3 {
		t.Errorf("custom mix cores = %d", mix.Cores())
	}
	if mix.Members[1] != "lbm-like" {
		t.Errorf("whitespace not trimmed: %q", mix.Members[1])
	}
}

func TestResolveMixCustomUnknownBenchmark(t *testing.T) {
	if _, err := resolveMix("", "mcf-like,ghost"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunReturnsErrors(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-mix", "W99-X"}, io.Discard); err == nil {
		t.Error("unknown mix accepted")
	}
	if err := run([]string{"-diff", "only-one.json"}, io.Discard); err == nil {
		t.Error("-diff with one path accepted")
	}
	if err := run([]string{"-config", filepath.Join(t.TempDir(), "missing.json")}, io.Discard); err == nil {
		t.Error("missing config file accepted")
	}
}

// TestRunWritesLedger drives a full (tiny) CLI run through run(), the same
// code path main uses, and checks the ledger lands on disk.
func TestRunWritesLedger(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run.json")
	err := run([]string{
		"-benchmarks", "mcf-like,gcc-like",
		"-warmup", "1000", "-measure", "5000",
		"-json", out,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	led, err := dbpsim.LoadLedger(out)
	if err != nil {
		t.Fatal(err)
	}
	if led.Tool != "dbpsim" || led.Mix != "custom" {
		t.Errorf("ledger = %s/%s", led.Tool, led.Mix)
	}
}

// TestCheckpointRestoreMatchesUninterruptedRun checkpoints a short run with
// -checkpoint, resumes it from the file with -restore, and requires the
// resumed run's ledger to equal an uninterrupted run's byte for byte. TCM
// and DBP put scheduler and partition-policy state into the checkpoint.
func TestCheckpointRestoreMatchesUninterruptedRun(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "config.json")
	if err := os.WriteFile(cfgPath, []byte(`{"SchedQuantumCPUCycles": 500, "DBP": {"QuantumCPUCycles": 1000}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ledger := func(name string, extra ...string) []byte {
		t.Helper()
		out := filepath.Join(dir, name+".json")
		args := append([]string{
			"-benchmarks", "mcf-like,gcc-like", "-sched", "tcm", "-part", "dbp",
			"-warmup", "1000", "-measure", "5000", "-config", cfgPath, "-json", out,
		}, extra...)
		if err := run(args, io.Discard); err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := ledger("plain")
	ckpt := filepath.Join(dir, "run.ckpt")
	if got := ledger("checkpointed", "-checkpoint", ckpt, "-checkpoint-interval", "1500"); !bytes.Equal(got, want) {
		t.Fatal("writing checkpoints changed the ledger")
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	// The resume notice goes to stderr; capture it to tell a real resume
	// from the silent-looking cycle-0 fallback.
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	saved := os.Stderr
	os.Stderr = stderr
	defer func() { os.Stderr = saved }()
	got := ledger("resumed", "-restore", ckpt)
	os.Stderr = saved
	notice, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(notice, []byte("resumed from")) || bytes.Contains(notice, []byte("rerunning from cycle 0")) {
		t.Fatalf("the -restore run did not resume from the checkpoint; stderr:\n%s", notice)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed ledger differs from the uninterrupted run's (%d vs %d bytes)", len(got), len(want))
	}
}
