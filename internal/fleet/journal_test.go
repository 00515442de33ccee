package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dbpsim/internal/durable"
)

// writeJournal drops raw lines into a fresh journal dir and returns the
// journal path.
func writeJournal(t *testing.T, lines ...string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// replayCoordJournal folds the journal at path the way openCoordJournal
// does, without opening it for append.
func replayCoordJournal(path string) (*coordReplay, error) {
	r := newCoordReplay()
	return r, durable.Replay(path, r.fold)
}

// compactCoordJournal rewrites the journal at path to r's compacted
// record stream, as openCoordJournal does after replay.
func compactCoordJournal(path string, r *coordReplay) {
	_ = durable.Rewrite(path, r.records())
}

// TestCoordJournalReplayTolerances pins the replay properties the
// restarted coordinator depends on: torn lines skip, out-of-order records
// fold correctly, duplicate cell completions are idempotent, sweep-end
// beats any arrival order, and the mirror index keeps the latest capture
// until a drop record deletes it.
func TestCoordJournalReplayTolerances(t *testing.T) {
	path := writeJournal(t,
		`{"op":"join","worker":"w1","addr":"http://a"}`,
		`{"op":"join","worker":"w1","addr":"http://b"}`, // re-advertise: last addr wins
		`{"op":"down","worker":"w1"}`,                   // older journals: ignored, w1 stays known
		// Out of order: this cell's sweep record never made it to disk.
		`{"op":"cell","sweep":"orphan","key":"k-lost","status":"done","ledger_sha256":"aa"}`,
		`{"op":"sweep","sweep":"s1","tenant":"acme","request":{"mixes":["W4-M1"]}}`,
		`{"op":"cell","sweep":"s1","key":"k1","status":"done","ledger_sha256":"11"}`,
		`{"op":"cell","sweep":"s1","key":"k1","status":"failed"}`, // duplicate: first verdict wins
		`{"op":"cell","sweep":"s1","key":"k2","status":"failed"}`,
		`{"op":"sweep-end","sweep":"s2","done":7,"failed":1}`,
		`{"op":"cell","sweep":"s2","key":"k9","status":"done"}`, // after the end: must not resurrect s2
		`{"op":"mirror","key":"run-a","checkpoint":"c1","cycle":100}`,
		`{"op":"mirror","key":"run-a","checkpoint":"c2","cycle":200}`, // latest capture wins
		`{"op":"mirror","key":"run-b","checkpoint":"c3","cycle":50}`,
		`{"op":"mirror-drop","key":"run-b"}`,
		`{"op":"cell","sweep":"s1","key":`, // torn final line from a crash mid-append
	)
	r, err := replayCoordJournal(path)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got := r.workers["w1"]; got != "http://b" {
		t.Errorf("worker addr = %q, want last-advertised http://b", got)
	}
	s1 := r.sweeps["s1"]
	if s1 == nil || s1.ended {
		t.Fatalf("s1 = %+v, want unfinished sweep", s1)
	}
	if c := s1.cells["k1"]; c.status != "done" || c.ledgerSHA != "11" {
		t.Errorf("s1/k1 = %+v, want first verdict (done, 11)", c)
	}
	if s1.doneCount() != 1 || s1.failedCount() != 1 {
		t.Errorf("s1 counts = %d/%d, want 1/1", s1.doneCount(), s1.failedCount())
	}
	s2 := r.sweeps["s2"]
	if s2 == nil || !s2.ended || s2.doneCount() != 7 || s2.failedCount() != 1 {
		t.Fatalf("s2 = %+v, want ended with journaled totals 7/1", s2)
	}
	orphan := r.sweeps["orphan"]
	if orphan == nil || len(orphan.request) != 0 || orphan.doneCount() != 1 {
		t.Fatalf("orphan = %+v, want provisional request-less sweep with one done cell", orphan)
	}
	if m := r.mirrors["run-a"]; m.hash != "c2" || m.cycle != 200 {
		t.Errorf("mirror run-a = %+v, want latest capture c2@200", m)
	}
	if _, ok := r.mirrors["run-b"]; ok {
		t.Error("mirror run-b survived its drop record")
	}
	// 1 (s1) + 7 (s2 totals) + 1 (orphan) done; 1 + 1 failed.
	if r.cellsDone() != 9 || r.cellsFailed() != 2 {
		t.Errorf("cells done/failed = %d/%d, want 9/2", r.cellsDone(), r.cellsFailed())
	}
}

// replaySummary flattens a coordReplay for equality checks.
func replaySummary(r *coordReplay) map[string]any {
	sweeps := map[string]any{}
	for id, sw := range r.sweeps {
		cells := map[string]replayedCell{}
		for k, c := range sw.cells {
			cells[k] = c
		}
		if sw.ended {
			// Compaction keeps only the totals for ended sweeps.
			cells = map[string]replayedCell{}
		}
		sweeps[id] = map[string]any{
			"ended": sw.ended, "done": sw.doneCount(), "failed": sw.failedCount(),
			"tenant": sw.tenant, "request": string(sw.request), "cells": cells,
		}
	}
	return map[string]any{
		"workers": r.workers, "mirrors": r.mirrors, "sweeps": sweeps,
		"done": r.cellsDone(), "failed": r.cellsFailed(),
	}
}

// FuzzCoordJournalReplay feeds arbitrary journal bytes through replay →
// compact → replay and requires (a) replay never fails on garbage, and
// (b) the compacted stream reconstructs the same folded state — the
// invariant a restarted (and re-restarted) coordinator depends on.
func FuzzCoordJournalReplay(f *testing.F) {
	f.Add("")
	f.Add(`{"op":"sweep","sweep":"s","request":{"mixes":["W4-M1"]}}` + "\n" +
		`{"op":"cell","sweep":"s","key":"k","status":"done","ledger_sha256":"aa"}` + "\n")
	f.Add(`{"op":"cell","sweep":"s","key":"k","status":"done"}` + "\n" +
		`{"op":"cell","sweep":"s","key":"k","status":"failed"}` + "\n" +
		`{"op":"sweep-end","sweep":"s","done":3,"failed":0}` + "\n")
	f.Add(`{"op":"mirror","key":"a","checkpoint":"h1","cycle":5}` + "\n" +
		`{"op":"mirror-drop","key":"a"}` + "\ngarbage\n" + `{"op":"join","worker":`)
	f.Fuzz(func(t *testing.T, raw string) {
		dir := t.TempDir()
		path := filepath.Join(dir, "journal.jsonl")
		if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		first, err := replayCoordJournal(path)
		if err != nil {
			t.Fatalf("replay of arbitrary bytes must not fail: %v", err)
		}
		compactCoordJournal(path, first)
		second, err := replayCoordJournal(path)
		if err != nil {
			t.Fatalf("replay of compacted journal failed: %v", err)
		}
		got, want := replaySummary(second), replaySummary(first)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("compaction changed the folded state\n got: %#v\nwant: %#v", got, want)
		}
	})
}

// TestCoordJournalAppendReplayRoundTrip drives the append API and checks
// the replayed state — including across a second open (append → compact →
// replay), the restart path itself.
func TestCoordJournalAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openCoordJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := []byte(`{"mixes":["W4-M1"],"partitions":["none","equal"]}`)
	if err := j.appendJoin("w1", "http://w1"); err != nil {
		t.Fatal(err)
	}
	if err := j.appendSweep("s1", "acme", req); err != nil {
		t.Fatal(err)
	}
	if err := j.appendCell("s1", sweepCell{key: "cell-a"}, SweepResult{Status: "done", LedgerSHA256: "aa", Worker: "w1"}); err != nil {
		t.Fatal(err)
	}
	blobHashStr, err := j.blobs.Put([]byte("blobby"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.appendMirror("cell-b", blobHashStr, 42); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, replay, err := openCoordJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if replay.workers["w1"] != "http://w1" {
		t.Errorf("workers = %+v", replay.workers)
	}
	sw := replay.sweeps["s1"]
	if sw == nil || sw.ended || sw.tenant != "acme" || string(sw.request) != string(req) {
		t.Fatalf("s1 = %+v", sw)
	}
	if c := sw.cells["cell-a"]; c.status != "done" || c.ledgerSHA != "aa" || c.worker != "w1" {
		t.Errorf("cell-a = %+v", c)
	}
	if m := replay.mirrors["cell-b"]; m.hash != blobHashStr || m.cycle != 42 {
		t.Errorf("mirror = %+v", m)
	}
	blob, err := j2.blobs.Get(blobHashStr)
	if err != nil || string(blob) != "blobby" {
		t.Errorf("mirror blob = %q, %v", blob, err)
	}
}

// TestCoordJournalMirrorGC checks that blobs no longer referenced by the
// mirror index are reclaimed at open, and referenced ones survive.
func TestCoordJournalMirrorGC(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openCoordJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := j.blobs.Put([]byte("keep me"))
	if err != nil {
		t.Fatal(err)
	}
	drop, err := j.blobs.Put([]byte("drop me"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.appendMirror("a", keep, 1); err != nil {
		t.Fatal(err)
	}
	if err := j.appendMirror("b", drop, 1); err != nil {
		t.Fatal(err)
	}
	if err := j.appendMirrorDrop("b"); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, _, err := openCoordJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, err := os.Stat(filepath.Join(dir, "checkpoints", keep)); err != nil {
		t.Errorf("referenced blob was GCed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoints", drop)); !os.IsNotExist(err) {
		t.Errorf("dropped blob survived GC: %v", err)
	}
}

// TestNilCoordJournal pins the always-off journal: every method must be
// safe on a nil receiver (a coordinator without -journal-dir).
func TestNilCoordJournal(t *testing.T) {
	var j *coordJournal
	if err := j.appendJoin("w", "a"); err != nil {
		t.Error(err)
	}
	if err := j.appendSweep("s", "", nil); err != nil {
		t.Error(err)
	}
	if err := j.appendCell("s", sweepCell{key: "k"}, SweepResult{Status: "done"}); err != nil {
		t.Error(err)
	}
	if err := j.appendSweepEnd("s", 1, 0); err != nil {
		t.Error(err)
	}
	if err := j.appendMirror("k", "h", 1); err != nil {
		t.Error(err)
	}
	if err := j.appendMirrorDrop("k"); err != nil {
		t.Error(err)
	}
	if err := j.Close(); err != nil {
		t.Error(err)
	}
	var rec coordRecord
	if err := json.Unmarshal([]byte(`{"op":"join"}`), &rec); err != nil || rec.Op != "join" {
		t.Errorf("coordRecord decode: %+v, %v", rec, err)
	}
}
