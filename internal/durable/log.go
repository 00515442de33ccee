// Package durable is the crash-safe storage both service journals share:
// an append-only JSONL record log (one fsync per record, replay that
// tolerates a torn tail, atomic compaction) and a content-addressed blob
// store (write-once sha256 names, reads that verify the bytes still hash to
// their name, a startup sweep of unreferenced blobs).
//
// A nil *Log or *Store is a valid, always-off store — a daemon running
// without -journal-dir — and every method no-ops on a nil receiver,
// mirroring chaos.Injector.
package durable

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"dbpsim/internal/chaos"
)

// Log is an append-only file of JSON records of type R, one per line.
type Log[R any] struct {
	inj *chaos.Injector

	mu sync.Mutex
	f  *os.File
}

// Open replays the log at path through fold, rewrites it to the records
// compact returns (when compact is non-nil), and opens it for appending,
// creating it when absent. compact runs after the last fold, so it sees the
// whole replayed state. Compaction is best-effort: on failure the
// uncompacted file stays in place, and it replays to the same state.
func Open[R any](path string, inj *chaos.Injector, fold func(R), compact func() []R) (*Log[R], error) {
	if err := Replay(path, fold); err != nil {
		return nil, err
	}
	if compact != nil {
		_ = Rewrite(path, compact())
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: open log: %w", err)
	}
	return &Log[R]{inj: inj, f: f}, nil
}

// Replay calls fold with every line of the log at path that decodes as an
// R, in file order. Lines that do not decode — a torn final line from a
// crash mid-append, or garbage — are skipped; lines may be of any length.
// A missing file is an empty log.
func Replay[R any](path string, fold func(R)) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("durable: replay log: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			var rec R
			if json.Unmarshal(line, &rec) == nil {
				fold(rec)
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("durable: replay log: %w", err)
		}
	}
}

// Rewrite atomically replaces the log at path with recs, one per line: the
// new content is written and fsynced to a temporary file beside it and
// renamed over it, so a crash leaves either the old file or the new one,
// never a mix. Call it only while no Log holds path open for appending.
func Rewrite[R any](path string, recs []R) error {
	var buf bytes.Buffer
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("durable: rewrite log: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return WriteAtomic(path, buf.Bytes())
}

// Append writes rec as one line and fsyncs it before returning. The
// chaos.JournalAppend fault fails it before anything is written.
func (l *Log[R]) Append(rec R) error {
	if l == nil {
		return nil
	}
	if err := l.inj.Err(chaos.JournalAppend); err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	data = append(data, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(data); err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("durable: append sync: %w", err)
	}
	return nil
}

// Close releases the log file.
func (l *Log[R]) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// WriteAtomic writes data to a dot-prefixed temporary file in path's
// directory, fsyncs it, and renames it to path, so an interrupted write
// never leaves a torn file where a whole one used to be. The temporary
// file is removed on every failure.
func WriteAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: write %s: %w", filepath.Base(path), err)
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("durable: write %s: %w", filepath.Base(path), err)
	}
	return nil
}
