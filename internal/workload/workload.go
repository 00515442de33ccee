// Package workload defines the synthetic benchmark suite that stands in for
// SPEC CPU2006 (see DESIGN.md) and the multi-programmed mixes the
// evaluation runs.
//
// Each benchmark is a parameterised trace generator shaped to land in a
// target class along the three axes the paper's mechanisms key on:
// memory intensity (MPKI), row-buffer locality (RBL) and bank-level
// parallelism (BLP). Every generator blends a *hot* stream that fits in the
// L1 (cache hits) with a *cold* pattern that reaches DRAM; the blend weight
// sets the intensity, the cold pattern's shape sets RBL and BLP.
package workload

import (
	"fmt"

	"dbpsim/internal/trace"
)

// Class is a benchmark's expected memory-intensity class.
type Class int

// Intensity classes.
const (
	// Light benchmarks have MPKI below ~1.
	Light Class = iota
	// Medium benchmarks sit between roughly 1 and 10 MPKI.
	Medium
	// Heavy benchmarks exceed ~10 MPKI.
	Heavy
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Light:
		return "light"
	case Medium:
		return "medium"
	case Heavy:
		return "heavy"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Pattern is the cold-access shape of a benchmark.
type Pattern int

// Cold-access patterns.
const (
	// PatternStream walks one or more sequential streams (high RBL).
	PatternStream Pattern = iota
	// PatternRandom touches uniformly random lines (low RBL, high BLP).
	PatternRandom
	// PatternChase is a dependent pointer chase (low RBL, BLP ≈ 1).
	PatternChase
	// PatternMixed blends streaming and random halves.
	PatternMixed
)

// Spec describes one benchmark.
type Spec struct {
	// Name identifies the benchmark ("mcf-like" etc.).
	Name string
	// Class is the expected intensity class.
	Class Class
	// Pattern is the cold-access shape.
	Pattern Pattern
	// Streams is the concurrent stream count for streaming patterns.
	Streams int
	// TargetMPKI is the intensity the parameters aim for.
	TargetMPKI float64
	// WriteFrac is the store fraction of cold accesses.
	WriteFrac float64
	// Burst is the number of consecutive cold accesses per episode; bursty
	// misses overlap in the core's window and express as bank-level
	// parallelism (1 = uniform).
	Burst int
	// ColdBytes is the cold working-set footprint.
	ColdBytes uint64
	// Description explains what the profile models.
	Description string
}

// Generator-shaping constants shared by every profile.
const (
	memRatio  = 0.35     // data accesses per instruction
	hotBytes  = 16 << 10 // hot stream footprint (fits the L1)
	coldBase  = 1 << 30  // virtual base of the cold region
	hotStride = 64
)

// New builds the benchmark's deterministic trace generator.
func (s Spec) New(seed int64) trace.Generator {
	// Intensity: MPKI ≈ coldWeight × memRatio × 1000 (cold accesses miss).
	coldWeight := s.TargetMPKI / (memRatio * 1000)
	if coldWeight > 1 {
		coldWeight = 1
	}
	hotWeight := 1 - coldWeight

	hotCfg := trace.Config{MemRatio: memRatio, WorkingSetBytes: hotBytes}
	coldCfg := trace.Config{
		MemRatio:        memRatio,
		WriteFrac:       s.WriteFrac,
		WorkingSetBytes: s.ColdBytes,
		BaseAddr:        coldBase,
	}

	var cold trace.Generator
	switch s.Pattern {
	case PatternStream:
		cold = trace.NewStream(coldCfg, s.Streams, 64, seed+1)
	case PatternRandom:
		cold = trace.NewRandom(coldCfg, seed+1)
	case PatternChase:
		cold = trace.NewChase(coldCfg, seed+1)
	default: // PatternMixed
		half := coldCfg
		half.WorkingSetBytes = coldCfg.WorkingSetBytes / 2
		randHalf := coldCfg
		randHalf.WorkingSetBytes = coldCfg.WorkingSetBytes / 2
		randHalf.BaseAddr = coldBase + half.WorkingSetBytes
		cold = trace.NewMix([]trace.Weighted{
			{Gen: trace.NewStream(half, maxInt(1, s.Streams), 64, seed+1), Weight: 1},
			{Gen: trace.NewRandom(randHalf, seed+2), Weight: 1},
		}, seed+3)
	}

	if hotWeight <= 0 {
		return cold
	}
	return trace.NewMix([]trace.Weighted{
		{Gen: trace.NewStream(hotCfg, 1, hotStride, seed+4), Weight: hotWeight},
		{Gen: cold, Weight: coldWeight, Burst: maxInt(1, s.Burst)},
	}, seed+5)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// mb is one mebibyte, the unit of the suite's cold footprints.
const mb = 1 << 20

// suite is the 18-benchmark evaluation suite, ordered heavy → light. It is
// built once; the exported accessors hand out copies.
var suite = []Spec{
	// Heavy: MPKI ≳ 10.
	{Name: "mcf-like", Class: Heavy, Pattern: PatternChase, Burst: 1, TargetMPKI: 35, WriteFrac: 0.05, ColdBytes: 32 * mb,
		Description: "dependent pointer chasing; intense, BLP≈1, poor locality"},
	{Name: "libquantum-like", Class: Heavy, Pattern: PatternStream, Streams: 1, Burst: 24, TargetMPKI: 28, WriteFrac: 0.15, ColdBytes: 16 * mb,
		Description: "single hot stream; intense, extreme row locality, BLP≈1-2"},
	{Name: "lbm-like", Class: Heavy, Pattern: PatternStream, Streams: 8, Burst: 16, TargetMPKI: 30, WriteFrac: 0.45, ColdBytes: 32 * mb,
		Description: "eight wide stencil streams with heavy stores; high BLP, high RBL"},
	{Name: "milc-like", Class: Heavy, Pattern: PatternRandom, Burst: 6, TargetMPKI: 25, WriteFrac: 0.20, ColdBytes: 32 * mb,
		Description: "lattice-QCD-style scattered accesses; high BLP, poor locality"},
	{Name: "soplex-like", Class: Heavy, Pattern: PatternMixed, Streams: 2, Burst: 4, TargetMPKI: 27, WriteFrac: 0.10, ColdBytes: 24 * mb,
		Description: "sparse LP solve: streaming sweeps plus scattered pivots"},
	{Name: "gems-like", Class: Heavy, Pattern: PatternStream, Streams: 6, Burst: 12, TargetMPKI: 22, WriteFrac: 0.30, ColdBytes: 32 * mb,
		Description: "FDTD sweeps over six arrays; high BLP, high RBL"},
	{Name: "omnetpp-like", Class: Heavy, Pattern: PatternRandom, Burst: 4, TargetMPKI: 20, WriteFrac: 0.25, ColdBytes: 24 * mb,
		Description: "event-queue pointer soup; scattered, moderate BLP"},
	{Name: "leslie3d-like", Class: Heavy, Pattern: PatternStream, Streams: 4, Burst: 8, TargetMPKI: 18, WriteFrac: 0.25, ColdBytes: 24 * mb,
		Description: "four fluid-dynamics streams; balanced BLP and RBL"},
	{Name: "bwaves-like", Class: Heavy, Pattern: PatternStream, Streams: 2, Burst: 8, TargetMPKI: 15, WriteFrac: 0.20, ColdBytes: 24 * mb,
		Description: "two wide blast-wave streams"},
	{Name: "sphinx3-like", Class: Heavy, Pattern: PatternMixed, Streams: 1, Burst: 2, TargetMPKI: 12, WriteFrac: 0.05, ColdBytes: 16 * mb,
		Description: "acoustic scoring: stream plus dictionary lookups"},
	// Medium: 1 ≲ MPKI ≲ 10.
	{Name: "astar-like", Class: Medium, Pattern: PatternRandom, Burst: 2, TargetMPKI: 7, WriteFrac: 0.15, ColdBytes: 16 * mb,
		Description: "path-finding over a grid; scattered pointer walks"},
	{Name: "zeusmp-like", Class: Medium, Pattern: PatternStream, Streams: 4, Burst: 4, TargetMPKI: 5, WriteFrac: 0.25, ColdBytes: 16 * mb,
		Description: "astrophysics stencil at moderate intensity"},
	{Name: "cactus-like", Class: Medium, Pattern: PatternStream, Streams: 2, Burst: 2, TargetMPKI: 4, WriteFrac: 0.30, ColdBytes: 16 * mb,
		Description: "relativity kernel; two streams, store-heavy"},
	{Name: "gcc-like", Class: Medium, Pattern: PatternRandom, Burst: 2, TargetMPKI: 2.5, WriteFrac: 0.20, ColdBytes: 8 * mb,
		Description: "compiler IR walks; scattered, mild intensity"},
	{Name: "h264-like", Class: Medium, Pattern: PatternStream, Streams: 1, Burst: 1, TargetMPKI: 1.5, WriteFrac: 0.15, ColdBytes: 8 * mb,
		Description: "motion estimation: frame-buffer streaming, mild"},
	// Light: MPKI ≲ 1.
	{Name: "gobmk-like", Class: Light, Pattern: PatternRandom, Burst: 1, TargetMPKI: 0.6, WriteFrac: 0.10, ColdBytes: 4 * mb,
		Description: "game-tree search; mostly cache-resident"},
	{Name: "calculix-like", Class: Light, Pattern: PatternStream, Streams: 1, Burst: 1, TargetMPKI: 0.25, WriteFrac: 0.10, ColdBytes: 4 * mb,
		Description: "FEM solve with small footprint"},
	{Name: "povray-like", Class: Light, Pattern: PatternRandom, Burst: 1, TargetMPKI: 0.05, WriteFrac: 0.05, ColdBytes: 2 * mb,
		Description: "ray tracing; essentially cache-resident"},
}

// Suite returns a copy of the 18-benchmark evaluation suite, ordered heavy
// → light.
func Suite() []Spec { return append([]Spec(nil), suite...) }

// ByName finds a benchmark spec. It scans the suite table in place and
// does not allocate.
func ByName(name string) (Spec, bool) {
	for i := range suite {
		if suite[i].Name == name {
			return suite[i], true
		}
	}
	return Spec{}, false
}

// Names returns every benchmark name in suite order.
func Names() []string {
	out := make([]string, len(suite))
	for i, s := range suite {
		out[i] = s.Name
	}
	return out
}
