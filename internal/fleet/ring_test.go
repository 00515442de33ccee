package fleet

import (
	"fmt"
	"math/rand"
	"testing"
)

// ringKeys builds a deterministic corpus of keys shaped like real run keys
// (long shared prefixes, differences concentrated late) — the adversarial
// shape for a placement hash.
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf(
			"c0ffee1234567890c0ffee1234567890c0ffee1234567890c0ffee12345678%02x|W8-M%d:b1,b2,b3|w=200000|m=%d",
			i%251, i%13, 400000+i)
	}
	return keys
}

// TestRingPlacementDeterministic pins the core placement property: for a
// fixed member set, the same key always resolves to the same worker —
// across ring rebuilds and across any permutation of the node list.
func TestRingPlacementDeterministic(t *testing.T) {
	nodes := []string{"w1", "w2", "w3", "w4", "w5"}
	r1 := NewRing(nodes...)
	r2 := NewRing(nodes...)
	perm := []string{"w4", "w1", "w5", "w3", "w2"}
	r3 := NewRing(perm...)
	for _, key := range ringKeys(500) {
		a, b, c := r1.Owner(key), r2.Owner(key), r3.Owner(key)
		if a != b {
			t.Fatalf("rebuild changed placement for %q: %s vs %s", key, a, b)
		}
		if a != c {
			t.Fatalf("node order changed placement for %q: %s vs %s", key, a, c)
		}
	}
}

// TestRingDuplicateAndEmptyNodes pins that degenerate member lists do not
// perturb the ring: duplicates and empty ids are dropped.
func TestRingDuplicateAndEmptyNodes(t *testing.T) {
	clean := NewRing("w1", "w2", "w3")
	dirty := NewRing("w2", "", "w1", "w3", "w2", "w1", "")
	if got, want := fmt.Sprint(dirty.Nodes()), fmt.Sprint(clean.Nodes()); got != want {
		t.Fatalf("node set differs: %s vs %s", got, want)
	}
	for _, key := range ringKeys(200) {
		if clean.Owner(key) != dirty.Owner(key) {
			t.Fatalf("duplicate/empty nodes changed placement for %q", key)
		}
	}
}

// TestRingMinimalMovement is the consistent-hashing property test: removing
// one node may only move keys that node owned (nothing else re-shuffles),
// and adding a node back restores the original placement exactly. Run over
// randomized member sets and key corpora.
func TestRingMinimalMovement(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keys := ringKeys(1000)
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(6) // 3..8 workers
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("worker-%d-%d", trial, i)
		}
		before := NewRing(nodes...)
		victim := nodes[rng.Intn(n)]
		var survivors []string
		for _, id := range nodes {
			if id != victim {
				survivors = append(survivors, id)
			}
		}
		after := NewRing(survivors...)

		moved := 0
		for _, key := range keys {
			was, is := before.Owner(key), after.Owner(key)
			if was == victim {
				if is == victim {
					t.Fatalf("trial %d: key %q still owned by removed node", trial, key)
				}
				moved++
				continue
			}
			if was != is {
				t.Fatalf("trial %d: key %q moved %s→%s though %s was not its owner",
					trial, key, was, is, victim)
			}
		}
		// The victim's share should be roughly 1/n of the corpus; allow wide
		// slack (3x) — this guards against gross imbalance, not variance.
		if max := 3 * len(keys) / n; moved > max {
			t.Fatalf("trial %d: removing 1 of %d nodes moved %d/%d keys (max %d)",
				trial, n, moved, len(keys), max)
		}

		// Re-adding the node must restore placement bit-for-bit.
		restored := NewRing(append(survivors, victim)...)
		for _, key := range keys {
			if before.Owner(key) != restored.Owner(key) {
				t.Fatalf("trial %d: re-adding %s did not restore placement for %q", trial, victim, key)
			}
		}
	}
}

// TestRingBalance checks the virtual-node count keeps worker load within a
// sane band: no worker owns more than ~2.5x its fair share of a large
// uniform key corpus.
func TestRingBalance(t *testing.T) {
	nodes := []string{"w1", "w2", "w3", "w4", "w5"}
	r := NewRing(nodes...)
	counts := make(map[string]int)
	for i := 0; i < 20000; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	fair := 20000 / len(nodes)
	for _, n := range nodes {
		if counts[n] == 0 {
			t.Fatalf("worker %s owns no keys", n)
		}
		if counts[n] > fair*5/2 {
			t.Fatalf("worker %s owns %d keys (fair share %d): ring is badly imbalanced", n, counts[n], fair)
		}
	}
}

// TestRingEmpty pins the no-workers behavior.
func TestRingEmpty(t *testing.T) {
	r := NewRing()
	if owner := r.Owner("anything"); owner != "" {
		t.Fatalf("empty ring returned owner %q", owner)
	}
	if r.Len() != 0 {
		t.Fatalf("empty ring Len() = %d", r.Len())
	}
}
