package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dbpsim/internal/chaos"
)

// Hash is the content address of a blob: its sha256, hex-encoded.
func Hash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Store is a directory of blobs, each named by its Hash.
type Store struct {
	dir         string
	inj         *chaos.Injector
	write, read chaos.Point
}

// NewStore opens the blob store in dir, creating the directory if needed.
// Put fires inj's fault at write and Get its fault at read, before touching
// the disk.
func NewStore(dir string, inj *chaos.Injector, write, read chaos.Point) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: blob store: %w", err)
	}
	return &Store{dir: dir, inj: inj, write: write, read: read}, nil
}

// Put stores data under its hash and returns the hash. Storing bytes that
// are already present is a no-op; the write goes through a fsynced
// temporary file and a rename, so a crash never leaves a torn blob under a
// real name.
func (s *Store) Put(data []byte) (string, error) {
	if s == nil {
		return "", nil
	}
	if err := s.inj.Err(s.write); err != nil {
		return "", err
	}
	hash := Hash(data)
	path := filepath.Join(s.dir, hash)
	if _, err := os.Stat(path); err == nil {
		return hash, nil
	}
	if err := writeAtomic(path, data); err != nil {
		return "", err
	}
	return hash, nil
}

// Get loads the blob named hash and checks that its bytes still hash to
// that name: a corrupt or truncated file is an error, never a silently
// wrong blob.
func (s *Store) Get(hash string) ([]byte, error) {
	if s == nil {
		return nil, errors.New("durable: no blob store configured")
	}
	if err := s.inj.Err(s.read); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(s.dir, hash))
	if err != nil {
		return nil, fmt.Errorf("durable: blob store: %w", err)
	}
	if got := Hash(data); got != hash {
		return nil, fmt.Errorf("durable: blob %s corrupt (content hashes to %s)", hash, got)
	}
	return data, nil
}

// Remove deletes the blob named hash. A blob that is already gone is not
// an error.
func (s *Store) Remove(hash string) error {
	if s == nil || hash == "" {
		return nil
	}
	if err := os.Remove(filepath.Join(s.dir, hash)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("durable: blob remove: %w", err)
	}
	return nil
}

// Sweep deletes every blob whose name keep rejects, plus every
// dot-prefixed entry — temporary files a crash left behind (no blob name
// starts with a dot). It returns how many entries it removed and the first
// error; one failed removal does not stop the sweep.
func (s *Store) Sweep(keep func(hash string) bool) (int, error) {
	if s == nil {
		return 0, nil
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("durable: blob sweep: %w", err)
	}
	removed := 0
	var firstErr error
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, ".") && keep(name) {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("durable: blob sweep: %w", err)
			}
			continue
		}
		removed++
	}
	return removed, firstErr
}
