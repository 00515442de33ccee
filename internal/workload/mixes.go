package workload

import (
	"fmt"
	"math/rand"
)

// Mix is one multi-programmed workload: an ordered list of benchmark names,
// one per core.
type Mix struct {
	// Name identifies the mix ("W8-M1" etc.).
	Name string
	// Category groups mixes by the fraction of heavy members:
	// "L" ≤ 25%, "M" = 50%, "H" ≥ 75%.
	Category string
	// Members are benchmark names, one per core.
	Members []string
}

// Cores returns the mix's core count.
func (m Mix) Cores() int { return len(m.Members) }

// Validate checks that every member exists in the suite.
func (m Mix) Validate() error {
	if len(m.Members) == 0 {
		return fmt.Errorf("workload: mix %s has no members", m.Name)
	}
	for _, name := range m.Members {
		if _, ok := ByName(name); !ok {
			return fmt.Errorf("workload: mix %s references unknown benchmark %q", m.Name, name)
		}
	}
	return nil
}

// HeavyCount returns the number of members whose spec class is Heavy.
func (m Mix) HeavyCount() int {
	n := 0
	for _, name := range m.Members {
		if s, ok := ByName(name); ok && s.Class == Heavy {
			n++
		}
	}
	return n
}

// mixes8 is the default evaluation set: twelve 8-core mixes spanning the
// L/M/H categories (the paper evaluates category-balanced mix sets).
var mixes8 = []Mix{
	// L: 2 of 8 heavy.
	{Name: "W8-L1", Category: "L", Members: []string{
		"libquantum-like", "mcf-like", "gcc-like", "h264-like",
		"gobmk-like", "calculix-like", "astar-like", "povray-like"}},
	{Name: "W8-L2", Category: "L", Members: []string{
		"lbm-like", "omnetpp-like", "zeusmp-like", "cactus-like",
		"gobmk-like", "povray-like", "h264-like", "calculix-like"}},
	{Name: "W8-L3", Category: "L", Members: []string{
		"milc-like", "leslie3d-like", "gcc-like", "astar-like",
		"calculix-like", "povray-like", "gobmk-like", "h264-like"}},
	{Name: "W8-L4", Category: "L", Members: []string{
		"gems-like", "soplex-like", "cactus-like", "zeusmp-like",
		"povray-like", "gobmk-like", "calculix-like", "gcc-like"}},
	// M: 4 of 8 heavy.
	{Name: "W8-M1", Category: "M", Members: []string{
		"mcf-like", "libquantum-like", "lbm-like", "milc-like",
		"gcc-like", "h264-like", "gobmk-like", "calculix-like"}},
	{Name: "W8-M2", Category: "M", Members: []string{
		"soplex-like", "gems-like", "omnetpp-like", "leslie3d-like",
		"astar-like", "zeusmp-like", "povray-like", "gobmk-like"}},
	{Name: "W8-M3", Category: "M", Members: []string{
		"bwaves-like", "sphinx3-like", "mcf-like", "lbm-like",
		"cactus-like", "gcc-like", "calculix-like", "povray-like"}},
	{Name: "W8-M4", Category: "M", Members: []string{
		"libquantum-like", "milc-like", "leslie3d-like", "omnetpp-like",
		"h264-like", "astar-like", "gobmk-like", "zeusmp-like"}},
	// H: 6 of 8 heavy.
	{Name: "W8-H1", Category: "H", Members: []string{
		"mcf-like", "libquantum-like", "lbm-like", "milc-like",
		"soplex-like", "gems-like", "gcc-like", "gobmk-like"}},
	{Name: "W8-H2", Category: "H", Members: []string{
		"omnetpp-like", "leslie3d-like", "bwaves-like", "sphinx3-like",
		"mcf-like", "lbm-like", "h264-like", "calculix-like"}},
	{Name: "W8-H3", Category: "H", Members: []string{
		"libquantum-like", "soplex-like", "milc-like", "gems-like",
		"omnetpp-like", "bwaves-like", "astar-like", "povray-like"}},
	{Name: "W8-H4", Category: "H", Members: []string{
		"lbm-like", "mcf-like", "leslie3d-like", "sphinx3-like",
		"gems-like", "milc-like", "zeusmp-like", "cactus-like"}},
}

// mixes4 are 4-core mixes for the core-count sensitivity study.
var mixes4 = []Mix{
	{Name: "W4-L1", Category: "L", Members: []string{
		"libquantum-like", "gcc-like", "gobmk-like", "calculix-like"}},
	{Name: "W4-M1", Category: "M", Members: []string{
		"mcf-like", "lbm-like", "h264-like", "povray-like"}},
	{Name: "W4-M2", Category: "M", Members: []string{
		"milc-like", "gems-like", "astar-like", "gobmk-like"}},
	{Name: "W4-H1", Category: "H", Members: []string{
		"libquantum-like", "mcf-like", "soplex-like", "calculix-like"}},
}

// mixes16 are 16-core mixes (W8-M1 and W8-H1 doubled) for the core-count
// sensitivity study.
var mixes16 = []Mix{
	{Name: "W16-M1", Category: "M", Members: doubled(mixes8[4].Members)},
	{Name: "W16-H1", Category: "H", Members: doubled(mixes8[8].Members)},
}

// doubled returns members followed by members again.
func doubled(members []string) []string {
	return append(append([]string(nil), members...), members...)
}

// The mix tables are built once. The exported accessors hand out deep
// copies, so no caller can alias (or mutate) a table.

// Mixes8 returns the default evaluation set: twelve 8-core mixes spanning
// the L/M/H categories.
func Mixes8() []Mix { return copyMixes(mixes8) }

// Mixes4 returns 4-core mixes for the core-count sensitivity study.
func Mixes4() []Mix { return copyMixes(mixes4) }

// Mixes16 returns 16-core mixes for the core-count sensitivity study.
func Mixes16() []Mix { return copyMixes(mixes16) }

// MixByName looks a mix up across all defined mix sets. The returned mix
// owns its Members slice.
func MixByName(name string) (Mix, bool) {
	for _, set := range [...][]Mix{mixes8, mixes4, mixes16} {
		for _, m := range set {
			if m.Name == name {
				return m.clone(), true
			}
		}
	}
	return Mix{}, false
}

// clone returns m with its own copy of Members.
func (m Mix) clone() Mix {
	m.Members = append([]string(nil), m.Members...)
	return m
}

// copyMixes deep-copies a mix table.
func copyMixes(set []Mix) []Mix {
	out := make([]Mix, len(set))
	for i, m := range set {
		out[i] = m.clone()
	}
	return out
}

// categoryHeavyFraction maps mix categories to their heavy-member share.
var categoryHeavyFraction = map[string]float64{"L": 0.25, "M": 0.5, "H": 0.75}

// RandomMix builds a reproducible mix: `cores` members drawn from the suite
// with the category's share of heavy benchmarks (L=25%, M=50%, H=75%), the
// rest split between medium and light. The same (name, cores, category,
// seed) always yields the same mix — the paper evaluates many such
// randomly generated mixes per category.
func RandomMix(name string, cores int, category string, seed int64) (Mix, error) {
	frac, ok := categoryHeavyFraction[category]
	if !ok {
		return Mix{}, fmt.Errorf("workload: unknown category %q (want L, M or H)", category)
	}
	if cores <= 0 {
		return Mix{}, fmt.Errorf("workload: cores must be positive, got %d", cores)
	}
	var heavy, medium, light []string
	for _, s := range suite {
		switch s.Class {
		case Heavy:
			heavy = append(heavy, s.Name)
		case Medium:
			medium = append(medium, s.Name)
		default:
			light = append(light, s.Name)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	nHeavy := int(float64(cores)*frac + 0.5)
	if nHeavy > cores {
		nHeavy = cores
	}
	rest := cores - nHeavy
	nMedium := rest / 2
	nLight := rest - nMedium

	members := make([]string, 0, cores)
	pick := func(pool []string, n int) {
		for i := 0; i < n; i++ {
			members = append(members, pool[rng.Intn(len(pool))])
		}
	}
	pick(heavy, nHeavy)
	pick(medium, nMedium)
	pick(light, nLight)
	// Shuffle the core placement so heavy threads are not always cores 0..k.
	rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	return Mix{Name: name, Category: category, Members: members}, nil
}
