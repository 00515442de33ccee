package durable

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dbpsim/internal/chaos"
)

type rec struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

func replayAll(t *testing.T, path string) []rec {
	t.Helper()
	var got []rec
	if err := Replay(path, func(r rec) { got = append(got, r) }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestLogAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := Open(path, nil, func(rec) { t.Fatal("fold called on a fresh log") }, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One record well past bufio.Scanner's limits: replay reads lines of
	// any length.
	big := strings.Repeat("x", 17<<20)
	want := []rec{{N: 1}, {N: 2, S: big}, {N: 3}}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, path); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %d records, want %d in order", len(got), len(want))
	}
}

func TestReplaySkipsTornAndGarbageLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	raw := "{\"n\":1}\n\ngarbage\n{\"n\":2}\n{\"n\":3,\"s\":\"to"
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, want := replayAll(t, path), []rec{{N: 1}, {N: 2}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replay = %+v, want %+v (torn final line skipped)", got, want)
	}
	if got := replayAll(t, filepath.Join(t.TempDir(), "missing.jsonl")); len(got) != 0 {
		t.Fatalf("missing log replayed %+v, want nothing", got)
	}
}

func TestOpenCompactsThenAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte("{\"n\":1}\n{\"n\":2}\n{\"n\":3}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sum := 0
	l, err := Open(path, nil, func(r rec) { sum += r.N }, func() []rec { return []rec{{N: sum}} })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{N: 4}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got, want := replayAll(t, path), []rec{{N: 6}, {N: 4}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after compaction + append: %+v, want %+v", got, want)
	}
}

// failingRec fails to marshal, standing in for any error partway through a
// rewrite.
type failingRec struct{ fail bool }

func (f failingRec) MarshalJSON() ([]byte, error) {
	if f.fail {
		return nil, errors.New("boom")
	}
	return []byte(`{"n":9}`), nil
}

func TestRewriteIsAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.jsonl")
	old := []byte("{\"n\":1}\n{\"n\":2}\n")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	// A failure after the first record leaves the old file untouched.
	if err := Rewrite(path, []failingRec{{}, {fail: true}}); err == nil {
		t.Fatal("rewrite with an unmarshalable record succeeded")
	}
	if got, _ := os.ReadFile(path); string(got) != string(old) {
		t.Fatalf("failed rewrite changed the file: %q", got)
	}
	// A successful one replaces it whole.
	if err := Rewrite(path, []failingRec{{}, {}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "{\"n\":9}\n{\"n\":9}\n" {
		t.Fatalf("rewritten file = %q", got)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("rewrite left litter: %v", entries)
	}
}

func TestAppendFiresChaosFault(t *testing.T) {
	inj, err := chaos.Parse("journal=2")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := Open(path, inj, func(rec) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(rec{N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{N: 2}); !chaos.IsInjected(err) {
		t.Fatalf("second append under journal=2: %v, want an injected fault", err)
	}
	if got, want := replayAll(t, path), []rec{{N: 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replay = %+v, want only the unfaulted record", got)
	}
}

func TestStorePutGetVerifies(t *testing.T) {
	s, err := NewStore(filepath.Join(t.TempDir(), "blobs"), nil, "", "")
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Put([]byte("payload"))
	if err != nil || h != Hash([]byte("payload")) {
		t.Fatalf("Put = %q, %v", h, err)
	}
	if again, err := s.Put([]byte("payload")); err != nil || again != h {
		t.Fatalf("second Put = %q, %v", again, err)
	}
	if got, err := s.Get(h); err != nil || string(got) != "payload" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := os.WriteFile(filepath.Join(s.dir, h), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(h); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Get of a tampered blob = %v, want a corrupt error", err)
	}
	if err := s.Remove(h); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(h); err != nil {
		t.Fatalf("Remove of a missing blob: %v", err)
	}
	if _, err := s.Get(h); err == nil {
		t.Fatal("Get after Remove succeeded")
	}
}

func TestStoreFiresChaosFaults(t *testing.T) {
	inj, err := chaos.Parse("result-write=2,result-read=1")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(t.TempDir(), inj, chaos.ResultWrite, chaos.ResultRead)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Put([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put([]byte("second")); !chaos.IsInjected(err) {
		t.Fatalf("second Put under result-write=2: %v, want an injected fault", err)
	}
	if _, err := s.Get(h); !chaos.IsInjected(err) {
		t.Fatalf("Get under result-read=1: %v, want an injected fault", err)
	}
	entries, _ := os.ReadDir(s.dir)
	if len(entries) != 1 || entries[0].Name() != h {
		t.Fatalf("store holds %v, want only the unfaulted blob %s", entries, h)
	}
}

func TestStoreSweep(t *testing.T) {
	s, err := NewStore(t.TempDir(), nil, "", "")
	if err != nil {
		t.Fatal(err)
	}
	keep, _ := s.Put([]byte("keep"))
	drop, _ := s.Put([]byte("drop"))
	if err := os.WriteFile(filepath.Join(s.dir, ".tmp-123"), []byte("litter"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Keeping every name still clears temporary litter.
	n, err := s.Sweep(func(string) bool { return true })
	if err != nil || n != 1 {
		t.Fatalf("keep-all sweep removed %d (%v), want 1", n, err)
	}
	n, err = s.Sweep(func(h string) bool { return h == keep })
	if err != nil || n != 1 {
		t.Fatalf("sweep removed %d (%v), want 1", n, err)
	}
	entries, _ := os.ReadDir(s.dir)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, []string{keep}) {
		t.Fatalf("after sweep: %v, want only %s (dropped %s)", names, keep, drop)
	}
}

func TestNilReceiversAreNoOps(t *testing.T) {
	var l *Log[rec]
	if err := l.Append(rec{N: 1}); err != nil {
		t.Error(err)
	}
	if err := l.Close(); err != nil {
		t.Error(err)
	}
	var s *Store
	if h, err := s.Put([]byte("x")); h != "" || err != nil {
		t.Errorf("nil Put = %q, %v", h, err)
	}
	if _, err := s.Get("h"); err == nil {
		t.Error("nil Get returned a blob")
	}
	if err := s.Remove("h"); err != nil {
		t.Error(err)
	}
	if n, err := s.Sweep(func(string) bool { return false }); n != 0 || err != nil {
		t.Errorf("nil Sweep = %d, %v", n, err)
	}
}
