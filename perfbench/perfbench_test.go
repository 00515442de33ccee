package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"dbpsim/internal/promtext"
)

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v, want 2", got)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if median(nil) != 0 {
		t.Error("median of nothing should be 0")
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10_000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && float64(c.n)*(1-p/100) < 10-1e-9 {
			t.Errorf("n=%d: p%v leaves fewer than ten samples beyond", c.n, p)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	pct, v, ok := tail(xs)
	if !ok || pct != 90 || math.Abs(v-90.1) > 1e-9 {
		t.Errorf("tail = p%v %v %v, want p90 90.1 true", pct, v, ok)
	}
	if _, _, ok := tail(xs[:5]); ok {
		t.Error("tail of five samples should not exist")
	}
}

// TestPromParsing parses a page written by the service's own exposition
// helpers: counters, labelled series, and per-lane histograms.
func TestPromParsing(t *testing.T) {
	var page bytes.Buffer
	promtext.WriteCounter(&page, "dbpserved_rejected_total", "Rejected.", 3)
	promtext.WriteHeader(&page, "dbpserved_quota_rejections_total", "counter", "By tenant.")
	promtext.WriteLabeled(&page, "dbpserved_quota_rejections_total", "tenant", `a"b`, 2)
	promtext.WriteLabeled(&page, "dbpserved_quota_rejections_total", "tenant", "c", 5)
	batch := promtext.NewHistogram(0.01, 0.1, 1)
	inter := promtext.NewHistogram(0.01, 0.1, 1)
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5} {
		batch.Observe(v)
	}
	for _, v := range []float64{0.005, 0.005, 0.005, 2} {
		inter.Observe(v)
	}
	promtext.WriteHeader(&page, "wait_seconds", "histogram", "Wait.")
	batch.WriteSeries(&page, "wait_seconds", "lane", "batch")
	inter.WriteSeries(&page, "wait_seconds", "lane", "interactive")
	m, err := parseProm(page.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := promSum(m, "dbpserved_rejected_total", nil); got != 3 {
		t.Errorf("rejected = %v, want 3", got)
	}
	if got := promSum(m, "dbpserved_quota_rejections_total", nil); got != 7 {
		t.Errorf("quota rejections summed = %v, want 7", got)
	}
	if got := promSum(m, "dbpserved_quota_rejections_total", map[string]string{"tenant": `a"b`}); got != 2 {
		t.Errorf("quoted label value = %v, want 2", got)
	}
	// batch: 1 ≤0.01, 2 in (0.01,0.1], 1 in (0.1,1]; rank 2 of 4 sits halfway
	// through the second bucket.
	if v, ok := histQuantile(m, "wait_seconds", map[string]string{"lane": "batch"}, 0.5); !ok || math.Abs(v-0.055) > 1e-9 {
		t.Errorf("batch p50 = %v %v, want 0.055", v, ok)
	}
	// interactive: the p99 rank falls in +Inf, which reports the top bound.
	if v, ok := histQuantile(m, "wait_seconds", map[string]string{"lane": "interactive"}, 0.99); !ok || v != 1 {
		t.Errorf("interactive p99 = %v %v, want 1", v, ok)
	}
	// Both lanes merged: 4 of 8 samples ≤0.01, so the median is 0.01.
	if v, ok := histQuantile(m, "wait_seconds", nil, 0.5); !ok || math.Abs(v-0.01) > 1e-9 {
		t.Errorf("merged p50 = %v %v, want 0.01", v, ok)
	}
	if _, ok := histQuantile(m, "absent_seconds", nil, 0.5); ok {
		t.Error("absent histogram reported a quantile")
	}
	if _, err := parseProm("bad{le=\"1\" 2\n"); err == nil {
		t.Error("unbalanced braces parsed")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dbpsim/internal/memctrl.(*Controller).selectAndIssue": "memctrl",
		"dbpsim/internal/sched.(*TCM).Less":                    "sched",
		"dbpsim/internal/sim.NewSystem.New.func2":              "sim",
		"dbpsim/internal/addr.(*Mapper).Decode":                "other",
		"runtime.mallocgc":                                     "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":         "runtime",
		"math/rand.(*rngSource).Uint64":                        "other",
		"main.main":                                            "other",
		"":                                                     "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, data []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
}

func (p *pb) packed(field int, vs ...uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	p.bytes(field, inner)
}

// TestSelfSharesLeafFrame builds a profile where one location holds an
// inlined memctrl frame inside a sim caller: its samples belong to memctrl
// (the leaf), never to the caller further up the stack.
func TestSelfSharesLeafFrame(t *testing.T) {
	var prof pb
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"dbpsim/internal/memctrl.(*Controller).Tick", "dbpsim/internal/sim.(*System).step", "runtime.mallocgc"}
	for i, name := range []int{5, 6, 7} {
		var fn pb
		fn.varint(1, uint64(i+1))
		fn.varint(2, uint64(name))
		prof.bytes(5, fn.b)
	}
	line := func(fn uint64) []byte {
		var l pb
		l.varint(1, fn)
		return l.b
	}
	// Location 1: memctrl inlined into sim; location 2: sim; location 3: runtime.
	for _, loc := range []struct {
		id  uint64
		fns []uint64
	}{{1, []uint64{1, 2}}, {2, []uint64{2}}, {3, []uint64{3}}} {
		var l pb
		l.varint(1, loc.id)
		for _, fn := range loc.fns {
			l.bytes(4, line(fn))
		}
		prof.bytes(4, l.b)
	}
	for _, s := range []struct {
		locs []uint64
		ns   uint64
	}{{[]uint64{1, 2}, 60}, {[]uint64{2}, 30}, {[]uint64{3, 2}, 10}} {
		var sm pb
		sm.packed(1, s.locs...)
		sm.packed(2, 1, s.ns)
		prof.bytes(2, sm.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()
	shares, err := selfShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"memctrl": 0.6, "sim": 0.3, "runtime": 0.1}
	var total float64
	for _, m := range profileModules {
		total += shares[m]
		if math.Abs(shares[m]-want[m]) > 1e-9 {
			t.Errorf("%s share = %v, want %v", m, shares[m], want[m])
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
	if _, err := selfShares([]byte("not gzip")); err == nil {
		t.Error("garbage profile decoded")
	}
}

func TestServeStreamDeterministic(t *testing.T) {
	scen := [][]byte{[]byte(`{"name":"a"}`), []byte(`{"name":"b"}`)}
	a, b, c := newServeStream(7, scen), newServeStream(7, scen), newServeStream(8, scen)
	differs := false
	kinds := map[string]int{}
	for i := 0; i < 200; i++ {
		x, y, z := a.next(), b.next(), c.next()
		if x.kind != y.kind || x.identity != y.identity || x.tenant != y.tenant || !bytes.Equal(x.body, y.body) {
			t.Fatalf("item %d differs between two streams of seed 7", i)
		}
		if !bytes.Equal(x.body, z.body) {
			differs = true
		}
		if i >= 20 {
			kinds[x.kind]++
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 produced the same stream")
	}
	// 180 items after the first block are nine whole blocks.
	if kinds[kindCold] != 27 || kinds[kindRepeat] != 126 || kinds[kindDup] != 9 || kinds[kindScenario] != 18 {
		t.Errorf("block composition drifted: %v", kinds)
	}
	if got := a.item(3); got.identity != 3 || !bytes.Equal(got.body, b.item(3).body) {
		t.Errorf("item(3) = identity %d", got.identity)
	}
}

func TestServeStreamDealsEvenly(t *testing.T) {
	s := newServeStream(3, [][]byte{[]byte(`{"name":"a"}`)})
	pairs := map[string]int{}
	for dealt := 0; dealt < 3*len(serveMixes)*len(servePolicies); {
		it := s.next()
		if it.kind != kindCold && it.kind != kindDup {
			continue
		}
		var req struct{ Mix, Scheduler, Partition string }
		if err := json.Unmarshal(it.body, &req); err != nil {
			t.Fatal(err)
		}
		pairs[req.Mix+"/"+req.Scheduler+"/"+req.Partition]++
		dealt++
	}
	// Three whole passes of the deck: every mix and policy pair three times.
	if len(pairs) != len(serveMixes)*len(servePolicies) {
		t.Fatalf("dealt %d distinct pairs, want %d", len(pairs), len(serveMixes)*len(servePolicies))
	}
	for p, n := range pairs {
		if n != 3 {
			t.Errorf("pair %s dealt %d times, want 3", p, n)
		}
	}
}

func TestSweepStreamDeterministic(t *testing.T) {
	a, b := newSweepStream(5), newSweepStream(5)
	for i := 0; i < 20; i++ {
		x, y := a.next(), b.next()
		xj, _ := json.Marshal(x.req)
		yj, _ := json.Marshal(y.req)
		if !bytes.Equal(xj, yj) || !bytes.Equal(x.warm, y.warm) || x.warmDst != y.warmDst {
			t.Fatalf("round %d differs between two streams of seed 5", i)
		}
		if i%2 == 1 {
			// The second sweep of a pair overlaps the first in one mix and
			// shares its seed, so half its cells are already cached.
			prev := newSweepStream(5)
			for k := 0; k < i-1; k++ {
				prev.next()
			}
			first := prev.next()
			if first.req.Mixes[1] != x.req.Mixes[0] || *first.req.Seed != *x.req.Seed {
				t.Errorf("round %d does not overlap round %d", i, i-1)
			}
			if x.warm == nil {
				t.Errorf("round %d has no warm-up run", i)
			}
		}
	}
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json and the
// metrics the command prints in step.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", names, workloadNames())
	}
	if len(bj.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, command %d", len(bj.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		got := bj.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("end_to_end[%d] = %+v, command declares %+v", i, got, m)
		}
	}
	if len(bj.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, command %d", len(bj.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		got := bj.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, command declares %+v", i, got, m)
		}
	}
}

// TestInteractionMapCoversMetrics keeps interactions.json complete: every
// per-layer metric appears in exactly one entry, every end-to-end metric
// and workload is described, and entries name only real ones.
func TestInteractionMapCoversMetrics(t *testing.T) {
	raw, err := os.ReadFile("interactions.json")
	if err != nil {
		t.Fatal(err)
	}
	var im struct {
		Workloads map[string]string `json:"workloads"`
		EndToEnd  map[string]string `json:"end_to_end"`
		PerLayer  []struct {
			Metrics     []string `json:"metrics"`
			Moves       []string `json:"moves"`
			MovesOn     []string `json:"moves_on"`
			UnchangedOn []string `json:"unchanged_on"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &im); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames() {
		if im.Workloads[w] == "" {
			t.Errorf("workload %s has no reason", w)
		}
	}
	e2e := map[string]bool{}
	for _, m := range endToEndMetrics {
		e2e[m.name] = true
		if im.EndToEnd[m.name] == "" {
			t.Errorf("end-to-end metric %s is not described", m.name)
		}
	}
	seen := map[string]int{}
	for _, e := range im.PerLayer {
		for _, m := range e.Metrics {
			seen[m]++
		}
		for _, m := range e.Moves {
			if !e2e[m] {
				t.Errorf("entry %v moves unknown end-to-end metric %s", e.Metrics, m)
			}
		}
		for _, w := range append(append([]string(nil), e.MovesOn...), e.UnchangedOn...) {
			if _, ok := workloads[w]; !ok {
				t.Errorf("entry %v names unknown workload %s", e.Metrics, w)
			}
		}
	}
	for _, m := range perLayerMetrics {
		if seen[m.name] != 1 {
			t.Errorf("per-layer metric %s appears %d times in the interaction map", m.name, seen[m.name])
		}
		delete(seen, m.name)
	}
	for m := range seen {
		t.Errorf("interaction map names undeclared metric %s", m)
	}
}
