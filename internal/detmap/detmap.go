// Package detmap provides a map type with deterministic gob encoding.
//
// encoding/gob serialises plain Go maps in iteration order, which Go
// randomises per process: two snapshots of semantically identical state
// produce different bytes. Snapshot blobs must be byte-reproducible — the
// cycle-skipping bit-identity suite compares them directly, and
// content-addressed caches key on them — so every map-shaped field in a
// snapshot state struct uses detmap.Map instead, which encodes entries in
// ascending key order.
package detmap

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"slices"
)

// Map is a map whose gob encoding is deterministic: entries are written in
// ascending key order. It is an ordinary map otherwise — index, range,
// delete and len all work directly.
type Map[K cmp.Ordered, V any] map[K]V

// Marshal gob-encodes a snapshot state value. With every map-shaped field a
// Map, equal states encode to equal bytes.
func Marshal(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unmarshal decodes bytes Marshal produced into v (a pointer).
func Unmarshal(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// Copy returns a Map holding the entries of src (nil in, nil out).
func Copy[K cmp.Ordered, V any](src map[K]V) Map[K, V] {
	if src == nil {
		return nil
	}
	dst := make(Map[K, V], len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// GobEncode implements gob.GobEncoder with sorted-key order.
func (m Map[K, V]) GobEncode() ([]byte, error) {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(len(keys)); err != nil {
		return nil, err
	}
	for _, k := range keys {
		if err := enc.Encode(k); err != nil {
			return nil, err
		}
		v := m[k]
		if err := enc.Encode(&v); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (m *Map[K, V]) GobDecode(data []byte) error {
	dec := gob.NewDecoder(bytes.NewReader(data))
	var n int
	if err := dec.Decode(&n); err != nil {
		return err
	}
	out := make(Map[K, V], n)
	for i := 0; i < n; i++ {
		var k K
		var v V
		if err := dec.Decode(&k); err != nil {
			return err
		}
		if err := dec.Decode(&v); err != nil {
			return err
		}
		out[k] = v
	}
	*m = out
	return nil
}
