package bankpart

import (
	"testing"

	"dbpsim/internal/addr"
)

func TestSpreadOrderAlternatesChannels(t *testing.T) {
	g := addr.DefaultGeometry() // 2 channels × 1 rank × 8 banks
	order := SpreadOrder(g)
	if len(order) != 16 {
		t.Fatalf("len = %d", len(order))
	}
	seen := map[int]bool{}
	for i, c := range order {
		if seen[c] {
			t.Fatalf("color %d repeated", c)
		}
		seen[c] = true
		ch, _, _ := g.ColorParts(c)
		if ch != i%2 {
			t.Errorf("position %d on channel %d, want alternation", i, ch)
		}
	}
}

func TestNoneGivesEveryoneEverything(t *testing.T) {
	p := NewNone(4, addr.DefaultGeometry())
	if p.Name() != "none" {
		t.Errorf("Name = %q", p.Name())
	}
	masks := p.Initial()
	if len(masks) != 4 {
		t.Fatalf("mask count = %d", len(masks))
	}
	for tid, m := range masks {
		if m.Count() != 16 {
			t.Errorf("thread %d has %d colors, want 16", tid, m.Count())
		}
	}
	if _, changed := p.Quantum(nil); changed {
		t.Error("None must never change")
	}
	// The masks share one full set; Initial must still hand out clones.
	masks[0].Remove(3)
	if masks[1].Count() != 16 || p.Initial()[0].Count() != 16 {
		t.Error("Initial does not return independent clones")
	}
}

// TestStaticPoliciesHaveEmptyState pins the static side of the policy
// state contract: nothing to snapshot, nothing to restore, and state a
// static policy could not have written is refused.
func TestStaticPoliciesHaveEmptyState(t *testing.T) {
	g := addr.DefaultGeometry()
	equal, err := NewEqual(4, g)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := NewFixed([][]int{{0}, {1}}, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{NewNone(4, g), equal, fixed} {
		b, err := p.Snapshot()
		if err != nil || len(b) != 0 {
			t.Errorf("%s: Snapshot = %d bytes, %v; want none", p.Name(), len(b), err)
		}
		if err := p.Restore(nil); err != nil {
			t.Errorf("%s: Restore(nil) = %v", p.Name(), err)
		}
		if err := p.Restore([]byte{1}); err == nil {
			t.Errorf("%s: restored non-empty state", p.Name())
		}
	}
}

func TestEqualPartitionsDisjointAndComplete(t *testing.T) {
	g := addr.DefaultGeometry()
	p, err := NewEqual(4, g)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "equal" {
		t.Errorf("Name = %q", p.Name())
	}
	masks := p.Initial()
	owner := make([]int, 16)
	for i := range owner {
		owner[i] = -1
	}
	for tid, m := range masks {
		if m.Count() != 4 {
			t.Errorf("thread %d has %d colors, want 4", tid, m.Count())
		}
		for _, c := range m.Colors() {
			if owner[c] >= 0 {
				t.Fatalf("color %d doubly assigned", c)
			}
			owner[c] = tid
		}
	}
	for c, o := range owner {
		if o < 0 {
			t.Errorf("color %d unassigned", c)
		}
	}
	if _, changed := p.Quantum(nil); changed {
		t.Error("Equal must never change")
	}
}

func TestEqualSpansChannels(t *testing.T) {
	g := addr.DefaultGeometry()
	p, err := NewEqual(8, g)
	if err != nil {
		t.Fatal(err)
	}
	for tid, m := range p.Initial() {
		chans := map[int]bool{}
		for _, c := range m.Colors() {
			ch, _, _ := g.ColorParts(c)
			chans[ch] = true
		}
		if len(chans) != g.Channels {
			t.Errorf("thread %d confined to %d channel(s)", tid, len(chans))
		}
	}
}

func TestEqualUnevenDivision(t *testing.T) {
	g := addr.DefaultGeometry()
	p, err := NewEqual(3, g) // 16/3
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{}
	total := 0
	for _, m := range p.Initial() {
		counts = append(counts, m.Count())
		total += m.Count()
	}
	if total != 16 {
		t.Errorf("total = %d, want 16 (%v)", total, counts)
	}
	for _, c := range counts {
		if c < 5 || c > 6 {
			t.Errorf("uneven split %v, want 5..6 each", counts)
		}
	}
}

func TestEqualErrors(t *testing.T) {
	g := addr.DefaultGeometry()
	if _, err := NewEqual(0, g); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := NewEqual(17, g); err == nil {
		t.Error("threads > colors accepted")
	}
}

func TestEqualInitialReturnsClones(t *testing.T) {
	p, err := NewEqual(2, addr.DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	a := p.Initial()
	a[0].Add(15)
	a[0].Add(14)
	b := p.Initial()
	if b[0].Count() != 8 {
		t.Error("Initial does not return independent clones")
	}
}

func TestFixedPolicy(t *testing.T) {
	g := addr.DefaultGeometry()
	p, err := NewFixed([][]int{{0, 1}, {5}}, g)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "fixed" {
		t.Errorf("Name = %q", p.Name())
	}
	masks := p.Initial()
	if masks[0].Count() != 2 || !masks[0].Has(0) || !masks[0].Has(1) {
		t.Errorf("thread 0 mask = %s", masks[0])
	}
	if masks[1].Count() != 1 || !masks[1].Has(5) {
		t.Errorf("thread 1 mask = %s", masks[1])
	}
	if _, changed := p.Quantum(nil); changed {
		t.Error("Fixed must never change")
	}
	// Initial returns clones.
	masks[0].Add(9)
	if p.Initial()[0].Has(9) {
		t.Error("Initial not cloned")
	}
}

func TestFixedPolicyErrors(t *testing.T) {
	g := addr.DefaultGeometry()
	if _, err := NewFixed(nil, g); err == nil {
		t.Error("empty threads accepted")
	}
	if _, err := NewFixed([][]int{{99}}, g); err == nil {
		t.Error("out-of-range color accepted")
	}
	if _, err := NewFixed([][]int{{-1}}, g); err == nil {
		t.Error("negative color accepted")
	}
	if _, err := NewFixed([][]int{{}}, g); err == nil {
		t.Error("empty mask accepted")
	}
}
