package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestJournalReplaysOversizedRecord: a submit record whose request body is
// just under the 1 MiB MaxBodyBytes — so its JSONL line, envelope
// included, is over 1 MiB — must not stop the journal from reopening.
func TestJournalReplaysOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"mix":"W4-M1","pad":"` + strings.Repeat("x", 1<<20-64) + `"}`)
	if len(body) > MaxBodyBytes {
		t.Fatalf("body of %d bytes is over the %d-byte request limit", len(body), MaxBodyBytes)
	}
	if err := j.appendSubmit("run-00000001", "k1", body, tenancyStamp{}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, restored, maxSeq, err := openJournal(dir, nil)
	if err != nil {
		t.Fatalf("reopen after a >1 MiB record: %v", err)
	}
	defer j2.Close()
	r := restored["run-00000001"]
	if r == nil || !r.interrupted || !bytes.Equal(r.request, body) || maxSeq != 1 {
		t.Fatalf("oversized submit did not round-trip: %+v (maxSeq %d)", r, maxSeq)
	}
}

// restoredSummary flattens a restored map for equality checks. Request
// bodies are compared in their canonical JSON form: compaction re-encodes
// them, which may drop insignificant whitespace.
func restoredSummary(t *testing.T, restored map[string]*restoredJob) map[string]restoredJob {
	t.Helper()
	out := make(map[string]restoredJob, len(restored))
	for id, r := range restored {
		c := *r
		if len(c.request) > 0 {
			canon, err := json.Marshal(c.request)
			if err != nil {
				t.Fatalf("job %s: request does not re-encode: %v", id, err)
			}
			c.request = canon
		}
		out[id] = c
	}
	return out
}

// FuzzJournalReplay feeds arbitrary journal bytes through replay → compact
// → replay (two opens of the same directory) and requires (a) opening never
// fails on garbage, and (b) the compacted stream restores the same jobs —
// the invariant a restarted (and re-restarted) daemon depends on.
func FuzzJournalReplay(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "journal_v1", "journal.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.SplitAfter(string(fixture), "\n")
	shuffled := make([]string, len(lines))
	for i, l := range lines {
		shuffled[len(lines)-1-i] = l
	}
	f.Add(string(fixture))
	f.Add(strings.Join(shuffled, "\n"))             // end before submit
	f.Add(string(fixture[:len(fixture)*2/3]))       // torn mid-record
	f.Add(string(fixture) + string(fixture) + "{}") // duplicates, junk tail
	f.Add(`{"op":"checkpoint","id":"run-00000003","checkpoint":"abc","cycle":9}` + "\n" +
		`{"op":"submit","id":"run-00000003","request":{"mix":"W4-M1"},"tenant":"t","lane":"batch","cost_simcycles":5,"ts":7}` + "\n" +
		`{"op":"checkpoint","id":"run-00000003","checkpoint":"def","cycle":10}` + "\n")
	f.Fuzz(func(t *testing.T, raw string) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		j, first, _, err := openJournal(dir, nil)
		if err != nil {
			t.Fatalf("replay of arbitrary bytes must not fail: %v", err)
		}
		j.Close()
		j2, second, _, err := openJournal(dir, nil)
		if err != nil {
			t.Fatalf("replay of compacted journal failed: %v", err)
		}
		j2.Close()
		got, want := restoredSummary(t, second), restoredSummary(t, first)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("compaction changed the restored jobs\n got: %#v\nwant: %#v", got, want)
		}
	})
}
