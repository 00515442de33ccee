package workload

import (
	"testing"

	"dbpsim/internal/trace"
)

func TestSuiteIntegrity(t *testing.T) {
	suite := Suite()
	if len(suite) != 18 {
		t.Fatalf("suite has %d benchmarks, want 18", len(suite))
	}
	seen := map[string]bool{}
	classCounts := map[Class]int{}
	for _, s := range suite {
		if seen[s.Name] {
			t.Errorf("duplicate benchmark %q", s.Name)
		}
		seen[s.Name] = true
		classCounts[s.Class]++
		if s.TargetMPKI <= 0 || s.ColdBytes == 0 {
			t.Errorf("%s: degenerate parameters %+v", s.Name, s)
		}
		if s.Description == "" {
			t.Errorf("%s: missing description", s.Name)
		}
		switch s.Class {
		case Heavy:
			if s.TargetMPKI < 10 {
				t.Errorf("%s: heavy class but target MPKI %g", s.Name, s.TargetMPKI)
			}
		case Medium:
			if s.TargetMPKI < 1 || s.TargetMPKI > 10 {
				t.Errorf("%s: medium class but target MPKI %g", s.Name, s.TargetMPKI)
			}
		case Light:
			if s.TargetMPKI >= 1 {
				t.Errorf("%s: light class but target MPKI %g", s.Name, s.TargetMPKI)
			}
		}
	}
	if classCounts[Heavy] < 8 || classCounts[Medium] < 4 || classCounts[Light] < 3 {
		t.Errorf("class balance off: %v", classCounts)
	}
}

func TestClassString(t *testing.T) {
	if Light.String() != "light" || Medium.String() != "medium" || Heavy.String() != "heavy" {
		t.Error("class names wrong")
	}
	if Class(9).String() == "" {
		t.Error("unknown class should still render")
	}
}

func TestByName(t *testing.T) {
	s, ok := ByName("mcf-like")
	if !ok || s.Name != "mcf-like" {
		t.Fatal("ByName failed for mcf-like")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName found a ghost")
	}
	if len(Names()) != 18 {
		t.Errorf("Names() length = %d", len(Names()))
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, s := range Suite() {
		a, b := s.New(42), s.New(42)
		for i := 0; i < 200; i++ {
			x, y := a.Next(), b.Next()
			if x != y {
				t.Fatalf("%s: nondeterministic at item %d", s.Name, i)
			}
		}
	}
}

func TestGeneratorsSeedSensitive(t *testing.T) {
	s, _ := ByName("milc-like")
	a, b := s.New(1), s.New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 50 {
		t.Errorf("different seeds produced %d/100 identical items", same)
	}
}

// TestGeneratorMemRatio verifies every profile's achieved instruction mix.
func TestGeneratorMemRatio(t *testing.T) {
	for _, s := range Suite() {
		g := s.New(7)
		var insts uint64
		n := 5000
		for i := 0; i < n; i++ {
			insts += uint64(g.Next().Gap) + 1
		}
		got := float64(n) / float64(insts)
		if got < memRatio*0.9 || got > memRatio*1.1 {
			t.Errorf("%s: achieved mem ratio %.3f, want ≈%.2f", s.Name, got, memRatio)
		}
	}
}

// TestColdFraction checks that the hot/cold blend matches the MPKI target:
// the fraction of accesses to the cold region should be ≈ target/350.
func TestColdFraction(t *testing.T) {
	for _, s := range Suite() {
		g := s.New(3)
		cold := 0
		n := 200000
		for i := 0; i < n; i++ {
			if g.Next().Addr >= coldBase {
				cold++
			}
		}
		want := s.TargetMPKI / (memRatio * 1000)
		got := float64(cold) / float64(n)
		if got < want*0.8-0.001 || got > want*1.2+0.001 {
			t.Errorf("%s: cold fraction %.4f, want ≈%.4f", s.Name, got, want)
		}
	}
}

func TestChasePatternDependent(t *testing.T) {
	s, _ := ByName("mcf-like")
	g := s.New(5)
	sawDependentCold := false
	for i := 0; i < 10000; i++ {
		it := g.Next()
		if it.Addr >= coldBase && !it.Dependent {
			t.Fatal("mcf-like cold access not dependent")
		}
		if it.Addr >= coldBase {
			sawDependentCold = true
		}
	}
	if !sawDependentCold {
		t.Error("no cold accesses observed")
	}
}

func TestMixesValid(t *testing.T) {
	for _, set := range [][]Mix{Mixes8(), Mixes4(), Mixes16()} {
		for _, m := range set {
			if err := m.Validate(); err != nil {
				t.Error(err)
			}
		}
	}
}

func TestMixes8Categories(t *testing.T) {
	mixes := Mixes8()
	if len(mixes) != 12 {
		t.Fatalf("got %d 8-core mixes, want 12", len(mixes))
	}
	for _, m := range mixes {
		if m.Cores() != 8 {
			t.Errorf("%s has %d cores", m.Name, m.Cores())
		}
		h := m.HeavyCount()
		switch m.Category {
		case "L":
			if h > 2 {
				t.Errorf("%s: %d heavy members in L mix", m.Name, h)
			}
		case "M":
			if h != 4 {
				t.Errorf("%s: %d heavy members in M mix, want 4", m.Name, h)
			}
		case "H":
			if h < 6 {
				t.Errorf("%s: %d heavy members in H mix, want ≥6", m.Name, h)
			}
		default:
			t.Errorf("%s: unknown category %q", m.Name, m.Category)
		}
	}
}

func TestMixes4And16(t *testing.T) {
	for _, m := range Mixes4() {
		if m.Cores() != 4 {
			t.Errorf("%s has %d cores", m.Name, m.Cores())
		}
	}
	for _, m := range Mixes16() {
		if m.Cores() != 16 {
			t.Errorf("%s has %d cores", m.Name, m.Cores())
		}
	}
}

func TestMixByName(t *testing.T) {
	m, ok := MixByName("W8-M1")
	if !ok || m.Name != "W8-M1" {
		t.Fatal("MixByName failed")
	}
	if _, ok := MixByName("W99-X"); ok {
		t.Error("MixByName found a ghost")
	}
}

// TestTablesDoNotAlias pins the table contract: the suite and mix tables
// are built once, lookups into them do not allocate (MixByName allocates
// only the Members copy it hands out), and nothing an accessor returns
// aliases a table.
func TestTablesDoNotAlias(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { ByName("povray-like") }); n != 0 {
		t.Errorf("ByName allocates %.0f times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { MixByName("W16-H1") }); n != 1 {
		t.Errorf("MixByName allocates %.0f times per call, want 1", n)
	}

	Suite()[0].Name = "scribbled"
	Names()[0] = "scribbled"
	m, _ := MixByName("W8-M1")
	m.Members[0] = "scribbled"
	for _, set := range [][]Mix{Mixes8(), Mixes4(), Mixes16()} {
		set[0].Members[0] = "scribbled"
	}
	if s, ok := ByName("mcf-like"); !ok || Suite()[0] != s || Names()[0] != "mcf-like" {
		t.Error("a Suite or Names result aliases the suite table")
	}
	for _, set := range [][]Mix{Mixes8(), Mixes4(), Mixes16()} {
		for _, m := range set {
			if err := m.Validate(); err != nil {
				t.Errorf("a returned mix aliases its table: %v", err)
			}
		}
	}
}

func TestMixNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, set := range [][]Mix{Mixes8(), Mixes4(), Mixes16()} {
		for _, m := range set {
			if seen[m.Name] {
				t.Errorf("duplicate mix name %q", m.Name)
			}
			seen[m.Name] = true
		}
	}
}

// Interface compliance: every benchmark generator is a trace.Generator.
var _ trace.Generator = Spec{}.New(0)

func TestRandomMixReproducible(t *testing.T) {
	a, err := RandomMix("R1", 8, "M", 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomMix("R1", 8, "M", 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cores() != 8 || b.Cores() != 8 {
		t.Fatalf("cores = %d/%d", a.Cores(), b.Cores())
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			t.Fatalf("same seed produced different mixes: %v vs %v", a.Members, b.Members)
		}
	}
	c, err := RandomMix("R2", 8, "M", 43)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Members {
		if a.Members[i] == c.Members[i] {
			same++
		}
	}
	if same == 8 {
		t.Error("different seeds produced identical mixes")
	}
}

func TestRandomMixCategoryComposition(t *testing.T) {
	for _, tc := range []struct {
		cat  string
		want int
	}{{"L", 2}, {"M", 4}, {"H", 6}} {
		m, err := RandomMix("R", 8, tc.cat, 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := m.HeavyCount(); got != tc.want {
			t.Errorf("category %s: %d heavy members, want %d", tc.cat, got, tc.want)
		}
	}
}

func TestRandomMixErrors(t *testing.T) {
	if _, err := RandomMix("R", 8, "X", 1); err == nil {
		t.Error("unknown category accepted")
	}
	if _, err := RandomMix("R", 0, "M", 1); err == nil {
		t.Error("zero cores accepted")
	}
}
