package sim

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"dbpsim/internal/obs"
	"dbpsim/internal/workload"
)

// snapshotTestConfig is a tiny, fast configuration that still exercises the
// partition and scheduling quanta several times per run.
func snapshotTestConfig() Config {
	cfg := DefaultConfig(snapshotTestMix.Cores())
	cfg.SchedQuantumCPUCycles = 500
	cfg.DBP.QuantumCPUCycles = 1000
	cfg.MCP.QuantumCPUCycles = 1000
	cfg.Seed = 42
	return cfg
}

var snapshotTestMix = workload.Mix{Name: "snaptest", Members: []string{"mcf-like", "gcc-like"}}

const (
	snapTestWarmup  = 500
	snapTestMeasure = 5000
)

func snapshotTestRecorder(t *testing.T, cfg Config) *obs.Recorder {
	t.Helper()
	rec, err := obs.NewRecorder(obs.Options{
		NumThreads: snapshotTestMix.Cores(),
		NumBanks:   cfg.Geometry.NumColors(),
		Spans:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// ledgerBytes runs one mix to completion (optionally resuming from a
// checkpoint) and returns its marshalled ledger.
func ledgerBytes(t *testing.T, cfg Config, scheduler SchedulerKind, partition PartitionKind, ck *Checkpointer) []byte {
	t.Helper()
	exp := NewExperiment(cfg, snapTestWarmup, snapTestMeasure)
	rec := snapshotTestRecorder(t, cfg)
	run, err := exp.RunMixCheckpointedContext(context.Background(), snapshotTestMix, scheduler, partition, rec, ck)
	if err != nil {
		t.Fatalf("%s/%s run: %v", scheduler, partition, err)
	}
	ledger, err := BuildLedger("snapshot-test", cfg, snapTestWarmup, snapTestMeasure, run, rec)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := obs.MarshalLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCheckpointResumeBitIdentical is the tentpole guarantee: interrupt a
// run at a checkpoint, restore into a fresh System, run to completion, and
// the ledger bytes equal the uninterrupted run's — for every policy family
// with scheduler and/or partitioner state, and for every scheduler (a
// resumed run ranks its queues from scratch, the uninterrupted one keeps
// its cached per-bank heads).
func TestCheckpointResumeBitIdentical(t *testing.T) {
	for _, tc := range skipPolicyCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := snapshotTestConfig()
			want := ledgerBytes(t, cfg, tc.scheduler, tc.partition, nil)

			// Interrupted run: cancel right after the second checkpoint.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var blob []byte
			var blobCycle uint64
			count := 0
			ck := &Checkpointer{
				Interval: cfg.SchedQuantumCPUCycles * 3,
				Sink: func(b []byte, cycle uint64) {
					count++
					blob, blobCycle = b, cycle
					if count == 2 {
						cancel()
					}
				},
			}
			exp := NewExperiment(cfg, snapTestWarmup, snapTestMeasure)
			rec := snapshotTestRecorder(t, cfg)
			_, err := exp.RunMixCheckpointedContext(ctx, snapshotTestMix, tc.scheduler, tc.partition, rec, ck)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run: want context.Canceled, got %v", err)
			}
			if blob == nil {
				t.Fatal("no checkpoint was emitted before cancellation")
			}
			if blobCycle%cfg.SchedQuantumCPUCycles != 0 {
				t.Fatalf("checkpoint at cycle %d is off the %d-cycle quantum grid", blobCycle, cfg.SchedQuantumCPUCycles)
			}

			got := ledgerBytes(t, cfg, tc.scheduler, tc.partition, &Checkpointer{Restore: blob})
			if !bytes.Equal(got, want) {
				t.Fatalf("resumed ledger differs from uninterrupted ledger (resumed from cycle %d):\n--- want (%d bytes)\n%s\n--- got (%d bytes)\n%s",
					blobCycle, len(want), truncateForLog(want), len(got), truncateForLog(got))
			}
		})
	}
}

func truncateForLog(b []byte) []byte {
	const max = 2048
	if len(b) <= max {
		return b
	}
	return b[:max]
}

// makeSnapshotBlob produces one valid checkpoint blob from a short run.
func makeSnapshotBlob(t testing.TB, cfg Config) []byte {
	t.Helper()
	exp := NewExperiment(cfg, snapTestWarmup, snapTestMeasure)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var blob []byte
	ck := &Checkpointer{
		Interval: cfg.SchedQuantumCPUCycles,
		Sink: func(b []byte, _ uint64) {
			blob = b
			cancel()
		},
	}
	_, err := exp.RunMixCheckpointedContext(ctx, snapshotTestMix, SchedFRFCFS, PartDBP, nil, ck)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("no checkpoint emitted")
	}
	return blob
}

// freshSnapshotSystem builds a system shaped like the blob source.
func freshSnapshotSystem(t testing.TB, cfg Config) *System {
	t.Helper()
	exp := NewExperiment(cfg, snapTestWarmup, snapTestMeasure)
	benches, _, err := exp.benches(snapshotTestMix)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cores = snapshotTestMix.Cores()
	cfg.Scheduler = SchedFRFCFS
	cfg.Partition = PartDBP
	sys, err := NewSystem(cfg, benches)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestRestoreStructuredErrors exercises the corrupt-checkpoint contract:
// damaged blobs fail with a *RestoreError, never a panic or a silent
// half-restore into a running system.
func TestRestoreStructuredErrors(t *testing.T) {
	cfg := snapshotTestConfig()
	blob := makeSnapshotBlob(t, cfg)

	requireRestoreError := func(t *testing.T, data []byte) {
		t.Helper()
		sys := freshSnapshotSystem(t, cfg)
		err := sys.RestoreSnapshot(data)
		if err == nil {
			t.Fatal("want error, got nil")
		}
		var rerr *RestoreError
		if !errors.As(err, &rerr) {
			t.Fatalf("want *RestoreError, got %T: %v", err, err)
		}
	}

	t.Run("truncated-header", func(t *testing.T) { requireRestoreError(t, blob[:10]) })
	t.Run("truncated-payload", func(t *testing.T) { requireRestoreError(t, blob[:len(blob)-7]) })
	t.Run("empty", func(t *testing.T) { requireRestoreError(t, nil) })
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[0] ^= 0xff
		requireRestoreError(t, bad)
	})
	t.Run("version-bumped", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[11]++ // version is big-endian at [8:12]
		requireRestoreError(t, bad)
	})
	t.Run("corrupt-payload", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[len(bad)-1] ^= 0xff
		requireRestoreError(t, bad)
	})
	t.Run("config-mismatch", func(t *testing.T) {
		other := cfg
		other.SchedQuantumCPUCycles = 1000
		exp := NewExperiment(other, snapTestWarmup, snapTestMeasure)
		benches, _, err := exp.benches(snapshotTestMix)
		if err != nil {
			t.Fatal(err)
		}
		other.Cores = snapshotTestMix.Cores()
		other.Scheduler = SchedFRFCFS
		other.Partition = PartDBP
		sys, err := NewSystem(other, benches)
		if err != nil {
			t.Fatal(err)
		}
		rerr := sys.RestoreSnapshot(blob)
		if rerr == nil {
			t.Fatal("want config-mismatch error, got nil")
		}
		var re *RestoreError
		if !errors.As(rerr, &re) {
			t.Fatalf("want *RestoreError, got %T: %v", rerr, rerr)
		}
	})
	t.Run("valid-restores", func(t *testing.T) {
		sys := freshSnapshotSystem(t, cfg)
		if err := sys.RestoreSnapshot(blob); err != nil {
			t.Fatalf("pristine blob failed to restore: %v", err)
		}
		if sys.pendingProgress == nil {
			t.Fatal("restore did not stage run progress")
		}
	})
}

// TestSnapshotRejectsOffQuantum pins the boundary rule: snapshots are only
// legal at scheduler-quantum boundaries.
func TestSnapshotRejectsOffQuantum(t *testing.T) {
	cfg := snapshotTestConfig()
	sys := freshSnapshotSystem(t, cfg)
	for i := 0; i < 3; i++ {
		if err := sys.step(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Snapshot(RunProgress{}); err == nil {
		t.Fatal("snapshot off the quantum grid must fail")
	}
}

// FuzzRestoreSnapshot feeds arbitrary bytes to RestoreSnapshot: it must
// return a structured *RestoreError (or succeed on the pristine blob),
// never panic.
func FuzzRestoreSnapshot(f *testing.F) {
	cfg := snapshotTestConfig()
	blob := makeSnapshotBlob(f, cfg)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	bumped := append([]byte(nil), blob...)
	bumped[11]++
	f.Add(bumped)
	f.Add([]byte{})
	f.Add([]byte("DBPSNAP\x00garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		sys := freshSnapshotSystem(t, cfg)
		err := sys.RestoreSnapshot(data)
		if err == nil {
			return // only reachable for a valid blob
		}
		var rerr *RestoreError
		if !errors.As(err, &rerr) {
			t.Fatalf("want *RestoreError, got %T: %v", err, err)
		}
	})
}
