package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"
)

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	name, unit, better string
}

// endToEndMetrics are reported by every workload with --trace 0. An
// operation is the workload's unit of work, and op_ms its typical wall
// time: on the simulator workloads one whole cold experiment (each input's
// median, averaged over the run's inputs); on serve-mixed one POST /v1/runs
// (median); on fleet-sweep one sweep cell seen at the client (median).
var endToEndMetrics = []metricDecl{
	{"setup_s", "s", "lower"},
	{"op_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"simcycles_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayerMetrics are reported by every workload with --trace 1; a metric
// of a layer the workload does not exercise reads 0.
var perLayerMetrics = func() []metricDecl {
	ms := []metricDecl{
		{"sim.alone_s", "s", "lower"},
		{"sim.shared_s", "s", "lower"},
		{"sim.newsystem_s", "s", "lower"},
		{"sim.simcycles", "count", "higher"},
		{"sim.skipped_share", "ratio", "higher"},
		{"sim.alloc_mb", "MB", "lower"},
		{"cache.access_ns", "ns", "lower"},
		{"trace.next_ns", "ns", "lower"},
	}
	for _, s := range replaySchedulers {
		ms = append(ms, metricDecl{"memctrl.tick_ns." + s, "ns", "lower"})
	}
	ms = append(ms,
		metricDecl{"memctrl.queue_depth_mean", "count", "lower"},
		metricDecl{"memctrl.row_hit_ratio", "ratio", "higher"},
		metricDecl{"dram.activates", "count", "lower"},
		metricDecl{"dram.reads", "count", "higher"},
		metricDecl{"dram.writes", "count", "higher"},
		metricDecl{"core.quantum_us", "us", "lower"},
		metricDecl{"core.repartitions", "count", "higher"},
		metricDecl{"paging.translate_ns", "ns", "lower"},
		metricDecl{"paging.pages_migrated", "count", "higher"},
		metricDecl{"obs.ledger_ms", "ms", "lower"},
		metricDecl{"obs.hooks_overhead", "ratio", "lower"},
		metricDecl{"runtime.gc_share", "ratio", "lower"},
		metricDecl{"serve.hit_p50_ms", "ms", "lower"},
		metricDecl{"serve.miss_p50_ms", "ms", "lower"},
		metricDecl{"serve.coalesced_p50_ms", "ms", "lower"},
		metricDecl{"serve.hit_ratio", "ratio", "higher"},
		metricDecl{"serve.queue_wait_p50_ms", "ms", "lower"},
		metricDecl{"serve.run_p50_s", "s", "lower"},
		metricDecl{"serve.rejected", "count", "lower"},
		metricDecl{"tenant.wait_p50_ms.interactive", "ms", "lower"},
		metricDecl{"tenant.wait_p50_ms.batch", "ms", "lower"},
		metricDecl{"tenant.quota_rejections", "count", "lower"},
		metricDecl{"scenario.miss_p50_ms", "ms", "lower"},
		metricDecl{"fleet.hops_per_cell", "count", "lower"},
		metricDecl{"fleet.peer_hit_ratio", "ratio", "higher"},
		metricDecl{"fleet.runs_executed", "count", "lower"},
		metricDecl{"fleet.cell_p50_ms", "ms", "lower"},
		metricDecl{"bench.tracing_overhead", "ratio", "lower"},
	)
	for _, m := range profileModules {
		ms = append(ms, metricDecl{m + ".self_share", "ratio", "lower"})
	}
	return ms
}()

// spanLog keeps the traced run's spans in memory; they are written out
// once, when the run ends. A nil *spanLog records nothing, so untimed
// call sites need no branches.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one interval around a call into a layer, in nanoseconds since
// the log started. Parent is the enclosing span's ID (0 = none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// start opens a span and returns its ID.
func (l *spanLog) start(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, StartNS: now})
	return len(l.spans)
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].EndNS = now
	l.mu.Unlock()
}

// selfTimes returns each span name's total self time in seconds: its
// duration minus the part covered by its direct children.
func (l *spanLog) selfTimes() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make([]int64, len(l.spans)+1)
	for _, s := range l.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]float64{}
	for _, s := range l.spans {
		out[s.Name] += float64(s.EndNS-s.StartNS-child[s.ID]) / 1e9
	}
	return out
}

// save writes the spans as JSON to path (nothing for a nil log).
func (l *spanLog) save(path string) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	b, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// gcClock reads the runtime's cumulative GC and total CPU time estimates.
func gcClock() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}
