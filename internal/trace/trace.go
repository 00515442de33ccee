// Package trace generates the deterministic synthetic instruction/memory
// traces that stand in for SPEC CPU2006 (see DESIGN.md, substitutions).
//
// A trace is an infinite stream of Items; each Item is one data access
// preceded by Gap non-memory instructions. Generators are parameterised so
// that the three axes the paper's mechanisms depend on — memory intensity
// (MPKI), row-buffer locality (RBL) and bank-level parallelism (BLP) — can
// be dialled independently:
//
//   - intensity: MemRatio × cache miss rate (working-set size vs. cache),
//   - RBL: sequential (stream) vs. uniform-random access,
//   - BLP: number of concurrent independent streams / dependence chains.
package trace

import "math/rand"

// Item is one memory access in a trace.
type Item struct {
	// Gap is the number of non-memory instructions retired before this
	// access.
	Gap int
	// Addr is the virtual byte address accessed.
	Addr uint64
	// IsWrite marks a store.
	IsWrite bool
	// Dependent marks a load that cannot issue until the thread's previous
	// memory access has completed (pointer chasing); it serialises misses
	// and therefore produces BLP ≈ 1.
	Dependent bool
}

// Generator produces an infinite instruction/memory trace.
type Generator interface {
	// Next returns the next memory access.
	Next() Item
}

// Config holds the parameters shared by all generators.
type Config struct {
	// MemRatio is the fraction of instructions that are data accesses,
	// in (0, 1].
	MemRatio float64
	// WriteFrac is the fraction of accesses that are stores, in [0, 1].
	WriteFrac float64
	// WorkingSetBytes is the footprint the generator walks.
	WorkingSetBytes uint64
	// BaseAddr is the virtual base of the working set.
	BaseAddr uint64
}

// gapper emits instruction gaps whose long-run average matches MemRatio
// exactly, with small per-item jitter.
type gapper struct {
	perAccess float64 // non-memory instructions per access
	acc       float64
	rng       *rand.Rand
}

func newGapper(memRatio float64, rng *rand.Rand) *gapper {
	if memRatio <= 0 {
		memRatio = 0.01
	}
	if memRatio > 1 {
		memRatio = 1
	}
	return &gapper{perAccess: 1/memRatio - 1, rng: rng}
}

func (g *gapper) next() int {
	// Jitter ±50% around the mean while the accumulator keeps the long-run
	// ratio exact.
	target := g.perAccess
	jitter := 1.0
	if target >= 1 {
		jitter = 0.5 + g.rng.Float64()
	}
	g.acc += target * jitter
	gap := int(g.acc)
	g.acc -= float64(gap)
	// Periodically re-center so jitter cannot drift the ratio.
	if g.acc > 8*target+8 {
		g.acc = 0
	}
	return gap
}

// lineSize is the assumed cache-line granularity for address generation.
const lineSize = 64

// StreamGen walks N independent sequential streams through the working set
// in round-robin order: high row-buffer locality, BLP ≈ min(N, banks
// touched), MPKI set by MemRatio (every new line misses).
type StreamGen struct {
	cfg     Config
	gaps    *gapper
	rng     *rand.Rand
	offsets []uint64
	region  uint64
	stride  uint64
	cur     int
}

// NewStream builds a streaming generator with `streams` concurrent streams
// advancing by `strideBytes` each access.
func NewStream(cfg Config, streams, strideBytes int, seed int64) *StreamGen {
	if streams < 1 {
		streams = 1
	}
	if strideBytes < 1 {
		strideBytes = lineSize
	}
	rng := rand.New(rand.NewSource(seed))
	g := &StreamGen{
		cfg:     cfg,
		gaps:    newGapper(cfg.MemRatio, rng),
		rng:     rng,
		offsets: make([]uint64, streams),
		stride:  uint64(strideBytes),
	}
	g.region = cfg.WorkingSetBytes / uint64(streams)
	if g.region < g.stride {
		g.region = g.stride
	}
	// Start each stream at a random phase so streams do not move in
	// lockstep rows.
	for i := range g.offsets {
		g.offsets[i] = uint64(rng.Int63n(int64(g.region))) / g.stride * g.stride
	}
	return g
}

// Next implements Generator.
func (g *StreamGen) Next() Item {
	s := g.cur
	if g.cur++; g.cur == len(g.offsets) {
		g.cur = 0
	}
	addr := g.cfg.BaseAddr + uint64(s)*g.region + g.offsets[s]
	// offsets[s] < region and stride <= region, so one subtraction wraps.
	if g.offsets[s] += g.stride; g.offsets[s] >= g.region {
		g.offsets[s] -= g.region
	}
	return Item{
		Gap:     g.gaps.next(),
		Addr:    addr,
		IsWrite: g.rng.Float64() < g.cfg.WriteFrac,
	}
}

// RandomGen touches uniformly random lines in the working set: low
// row-buffer locality, BLP limited only by the core's MSHRs.
type RandomGen struct {
	cfg   Config
	gaps  *gapper
	rng   *rand.Rand
	lines int64
}

// NewRandom builds a uniform-random generator.
func NewRandom(cfg Config, seed int64) *RandomGen {
	rng := rand.New(rand.NewSource(seed))
	lines := int64(cfg.WorkingSetBytes / lineSize)
	if lines < 1 {
		lines = 1
	}
	return &RandomGen{cfg: cfg, gaps: newGapper(cfg.MemRatio, rng), rng: rng, lines: lines}
}

// Next implements Generator.
func (g *RandomGen) Next() Item {
	addr := g.cfg.BaseAddr + uint64(g.rng.Int63n(g.lines))*lineSize
	return Item{
		Gap:     g.gaps.next(),
		Addr:    addr,
		IsWrite: g.rng.Float64() < g.cfg.WriteFrac,
	}
}

// ChaseGen models pointer chasing: each access is random *and* dependent on
// the previous one, so misses serialise (BLP ≈ 1).
type ChaseGen struct {
	inner *RandomGen
}

// NewChase builds a pointer-chase generator.
func NewChase(cfg Config, seed int64) *ChaseGen {
	return &ChaseGen{inner: NewRandom(cfg, seed)}
}

// Next implements Generator.
func (g *ChaseGen) Next() Item {
	it := g.inner.Next()
	it.Dependent = true
	it.IsWrite = false // chases are loads
	return it
}

// Weighted pairs a generator with a selection weight for MixGen. Weight is
// the part's target fraction of *items*; Burst (default 1) makes the part
// emit that many consecutive items per selection. Bursty parts model the
// clustered misses of real memory-intensive loops: a window-limited core
// can only overlap misses that arrive close together, so burstiness is what
// turns a part's accesses into bank-level parallelism.
type Weighted struct {
	Gen    Generator
	Weight float64
	Burst  int
}

// MixGen interleaves several sub-generators, choosing each run from one of
// them with probability proportional to Weight/Burst (so the long-run item
// fraction matches Weight). Gaps come from the chosen sub-generator, so the
// mixture's memory intensity is the weighted blend of its parts.
type MixGen struct {
	parts []Weighted
	sel   []float64 // per-part selection weight, Weight/Burst
	total float64   // sum of selection weights
	rng   *rand.Rand

	// current run
	cur  int
	left int
}

// NewMix builds a mixture generator. Parts with non-positive weight are
// dropped; NewMix panics if nothing remains (a configuration bug).
func NewMix(parts []Weighted, seed int64) *MixGen {
	g := &MixGen{
		parts: make([]Weighted, 0, len(parts)),
		sel:   make([]float64, 0, len(parts)),
		rng:   rand.New(rand.NewSource(seed)),
	}
	for _, p := range parts {
		if p.Weight > 0 && p.Gen != nil {
			if p.Burst < 1 {
				p.Burst = 1
			}
			g.parts = append(g.parts, p)
			g.sel = append(g.sel, p.Weight/float64(p.Burst))
			g.total += g.sel[len(g.sel)-1]
		}
	}
	if len(g.parts) == 0 {
		panic("trace: NewMix needs at least one positive-weight part")
	}
	return g
}

// Next implements Generator.
func (g *MixGen) Next() Item {
	if g.left == 0 {
		x := g.rng.Float64() * g.total
		g.cur = len(g.parts) - 1
		for i, sel := range g.sel {
			if x < sel {
				g.cur = i
				break
			}
			x -= sel
		}
		g.left = g.parts[g.cur].Burst
	}
	g.left--
	return g.parts[g.cur].Gen.Next()
}

// Phase is one segment of a PhasedGen.
type Phase struct {
	Gen Generator
	// Instructions is how many instructions (gaps + accesses) the phase
	// lasts; the final phase may use 0 to mean "forever".
	Instructions uint64
}

// PhasedGen switches between generators at instruction-count boundaries,
// modelling program phase changes (used by the partition-dynamics
// experiment). After the last phase it cycles back to the first.
type PhasedGen struct {
	phases []Phase
	idx    int
	seen   uint64
}

// NewPhased builds a phase-switching generator. It panics on an empty phase
// list (a configuration bug).
func NewPhased(phases []Phase) *PhasedGen {
	if len(phases) == 0 {
		panic("trace: NewPhased needs at least one phase")
	}
	return &PhasedGen{phases: phases}
}

// Next implements Generator.
func (g *PhasedGen) Next() Item {
	p := g.phases[g.idx]
	if p.Instructions > 0 && g.seen >= p.Instructions {
		g.idx = (g.idx + 1) % len(g.phases)
		g.seen = 0
		p = g.phases[g.idx]
	}
	it := p.Gen.Next()
	g.seen += uint64(it.Gap) + 1
	return it
}

// Scripted replays a fixed slice of items, cycling; used by tests.
type Scripted struct {
	items []Item
	idx   int
}

// NewScripted builds a replay generator. It panics on empty input.
func NewScripted(items []Item) *Scripted {
	if len(items) == 0 {
		panic("trace: NewScripted needs at least one item")
	}
	cp := make([]Item, len(items))
	copy(cp, items)
	return &Scripted{items: cp}
}

// Next implements Generator.
func (s *Scripted) Next() Item {
	it := s.items[s.idx]
	s.idx = (s.idx + 1) % len(s.items)
	return it
}
