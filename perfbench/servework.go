package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"dbpsim"
)

// Cold service requests use small budgets so service overhead, not
// simulation, dominates the request path.
const (
	serveWarmup  = 1_000
	serveMeasure = 3_000
)

// serveKinds are the request kinds of the serve-mixed stream.
const (
	kindCold     = "cold"     // a fresh run: journal, result store, ledger build
	kindRepeat   = "repeat"   // an earlier request again: a cache hit, or coalesced while it runs
	kindDup      = "dup"      // a fresh run sent twice at once: one miss, one coalesced
	kindScenario = "scenario" // a fresh run carrying an inline scenario document
)

// serveBlock is the fixed composition of every 20 consecutive stream
// items (21 requests, the duplicate counting twice); the seed shuffles each
// block and picks what each request asks for. Two thirds of the requests
// are repeats, so the median request is a cache hit and measures service
// overhead, while fresh runs and their queueing make up the tail.
var serveBlock = []string{
	kindCold, kindCold, kindCold, kindDup, kindScenario, kindScenario,
	kindRepeat, kindRepeat, kindRepeat, kindRepeat, kindRepeat, kindRepeat, kindRepeat,
	kindRepeat, kindRepeat, kindRepeat, kindRepeat, kindRepeat, kindRepeat, kindRepeat,
}

// serveMixes and servePolicies are what cold requests draw from.
var (
	serveMixes    = []string{"W4-L1", "W4-M1", "W4-M2", "W4-H1"}
	servePolicies = [][2]string{{"frfcfs", "none"}, {"tcm", "none"}, {"frfcfs", "dbp"}, {"frfcfs", "equal"}}
)

// serveItem is one request of the stream. Identity numbers distinct run
// requests in stream order; repeats reuse an earlier identity.
type serveItem struct {
	kind     string
	identity int
	tenant   string
	body     []byte
}

// serveStream generates the seeded request stream on demand. It is safe
// for concurrent use; the sequence of items is a function of the seed
// alone, whichever client pulls each one.
type serveStream struct {
	mu        sync.Mutex
	rng       *rand.Rand
	seed      int64
	scenarios [][]byte
	runs      deck // mix and policy of cold runs: serveMixes × servePolicies
	scenario  deck // scenario of scenario runs
	block     []string
	issued    []serveItem // fresh items, by identity
}

func newServeStream(seed int64, scenarios [][]byte) *serveStream {
	rng := rand.New(rand.NewSource(seed))
	return &serveStream{rng: rng, seed: seed, scenarios: scenarios,
		runs:     deck{rng: rng, n: len(serveMixes) * len(servePolicies)},
		scenario: deck{rng: rng, n: len(scenarios)}}
}

// deck deals 0..n-1 in a seeded order, reshuffled after every full pass,
// so each choice is dealt equally often and every seed's stream asks for
// the same amount of simulation.
type deck struct {
	rng  *rand.Rand
	n    int
	left []int
}

func (d *deck) deal() int {
	if len(d.left) == 0 {
		d.left = d.rng.Perm(d.n)
	}
	i := d.left[0]
	d.left = d.left[1:]
	return i
}

// next returns the next request of the stream.
func (s *serveStream) next() serveItem {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.block) == 0 {
		s.block = append([]string(nil), serveBlock...)
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	kind := s.block[0]
	s.block = s.block[1:]
	if kind == kindRepeat && len(s.issued) == 0 {
		kind = kindCold
	}
	if kind == kindRepeat {
		// Recent identities, so some repeats land while the run is in flight.
		lo := len(s.issued) - 8
		if lo < 0 {
			lo = 0
		}
		it := s.issued[lo+s.rng.Intn(len(s.issued)-lo)]
		it.kind = kindRepeat
		return it
	}
	return s.fresh(kind)
}

// fresh builds a new run request of the given kind. Each gets its own
// simulation seed, so its run key is new.
func (s *serveStream) fresh(kind string) serveItem {
	id := len(s.issued)
	simSeed := s.seed*1_000_003 + int64(id)
	warm := uint64(serveWarmup)
	req := map[string]any{"warmup": warm, "measure": serveMeasure, "seed": simSeed}
	if kind == kindScenario {
		req["scenario"] = json.RawMessage(s.scenarios[s.scenario.deal()])
	} else {
		c := s.runs.deal()
		req["mix"] = serveMixes[c/len(servePolicies)]
		p := servePolicies[c%len(servePolicies)]
		req["scheduler"], req["partition"] = p[0], p[1]
	}
	body, _ := json.Marshal(req) // maps of strings, numbers and raw JSON always encode
	tenant := tenantBatch
	if s.rng.Intn(3) == 0 {
		tenant = tenantInteractive
	}
	it := serveItem{kind: kind, identity: id, tenant: tenant, body: body}
	s.issued = append(s.issued, it)
	return it
}

// item returns fresh identity id, generating the stream up to it.
func (s *serveStream) item(id int) serveItem {
	for {
		s.mu.Lock()
		if id < len(s.issued) {
			it := s.issued[id]
			s.mu.Unlock()
			return it
		}
		s.mu.Unlock()
		s.next()
	}
}

// The two tenants of the service: one interactive, one batch, no quotas.
const (
	tenantInteractive = "bench-interactive"
	tenantBatch       = "bench-batch"
)

const tenantsFile = `{"schema_version": 1, "tenants": [
  {"name": "interactive", "key": "bench-interactive", "weight": 4, "lane": "interactive"},
  {"name": "batch", "key": "bench-batch", "weight": 1}
]}`

func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// httpServer is a handler on a loopback listener.
type httpServer struct {
	hs  *http.Server
	url string
	wg  sync.WaitGroup
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.hs.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return s, nil
}

// close shuts the listener down and waits for its serve loop to exit.
func (s *httpServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout leaves only idle connections behind
	s.wg.Wait()
}

// serviceNode is one in-process dbpserved: server plus listener.
type serviceNode struct {
	srv  *dbpsim.Server
	http *httpServer
}

func (n *serviceNode) close() {
	n.http.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = n.srv.Close(ctx) // on timeout in-flight runs are canceled; nothing to report
}

// startServeNode builds the service with the tenants of tenantsPath and,
// unless journalDir is empty, a journal in journalDir, and brings its
// listener up.
func startServeNode(journalDir, tenantsPath string) (*serviceNode, error) {
	reg, err := dbpsim.NewTenantRegistry(tenantsPath)
	if err != nil {
		return nil, err
	}
	srv, err := dbpsim.NewServer(dbpsim.ServerOptions{
		Workers:    2,
		JournalDir: journalDir,
		Tenants:    reg,
		Logger:     quietLogger(),
	})
	if err != nil {
		return nil, err
	}
	hs, err := listen(srv)
	if err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
		return nil, err
	}
	return &serviceNode{srv: srv, http: hs}, nil
}

// httpClient is shared by every request; its transport keeps a few
// loopback connections per host alive.
var httpClient = &http.Client{
	Timeout:   2 * time.Minute,
	Transport: &http.Transport{MaxIdleConnsPerHost: 8},
}

// postRun sends one POST /v1/runs and returns the body and X-Cache
// verdict; a non-2xx status is an error.
func postRun(url, apiKey string, body []byte) ([]byte, string, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode/100 != 2 {
		return nil, "", fmt.Errorf("POST /v1/runs: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return b, resp.Header.Get("X-Cache"), nil
}

// scrape fetches and parses a /metrics page.
func scrape(url string) ([]promSample, error) {
	resp, err := httpClient.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(b))
}

// loadScenarios reads the committed scenario documents.
func loadScenarios() ([][]byte, error) {
	paths, err := filepath.Glob(filepath.Join("scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		return nil, fmt.Errorf("no scenarios/*.json in the checkout (%v)", err)
	}
	sort.Strings(paths)
	var out [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// ledgerSummary is the part of a served ledger the benchmark reads: the
// simulated cycle count and the DRAM counters.
type ledgerSummary struct {
	Cycles   uint64            `json:"cycles"`
	Counters map[string]uint64 `json:"counters"`
}

// sample is one timed request.
type sample struct {
	kind, cache string
	ms          float64
}

// serveRun accumulates one measurement window's requests.
type serveRun struct {
	mu      sync.Mutex
	samples []sample
	bodies  map[int][]byte // identity → first body seen
	misses  map[int]ledgerSummary
	wall    float64
	cpu     float64 // process CPU seconds over the windows
}

// check records a response body for an identity: every response for the
// same identity must be byte-identical, whichever path served it.
func (sr *serveRun) check(it serveItem, body []byte, cache string) error {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if prev, ok := sr.bodies[it.identity]; ok {
		if !bytes.Equal(prev, body) {
			return fmt.Errorf("request %d (%s, X-Cache %s) body differs from its first response", it.identity, it.kind, cache)
		}
	} else {
		sr.bodies[it.identity] = body
	}
	if cache == "miss" {
		var l ledgerSummary
		if err := json.Unmarshal(body, &l); err != nil {
			return fmt.Errorf("request %d: ledger: %w", it.identity, err)
		}
		sr.misses[it.identity] = l
	}
	return nil
}

// serveClients is the closed loop: this many clients, each sending its
// next request when the previous one completes. One client keeps cache
// hits off a processor busy with another request's simulation, so their
// latency measures the service path; duplicates still arrive in pairs.
const serveClients = 1

// window runs the closed loop against url until the window closes.
func (sr *serveRun) window(url string, stream *serveStream, seconds float64, r *report) {
	end := deadline(seconds)
	t0, c0 := time.Now(), cpuSeconds()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				it := stream.next()
				sends := 1
				if it.kind == kindDup {
					sends = 2
				}
				var inner sync.WaitGroup
				for k := 0; k < sends; k++ {
					inner.Add(1)
					go func() {
						defer inner.Done()
						sp := r.spans.start("serve.request."+it.kind, 0)
						t := time.Now()
						body, cache, err := postRun(url, it.tenant, it.body)
						ms := float64(time.Since(t).Nanoseconds()) / 1e6
						r.spans.end(sp)
						if err == nil {
							err = sr.check(it, body, cache)
						}
						if err == nil {
							sr.mu.Lock()
							sr.samples = append(sr.samples, sample{kind: it.kind, cache: cache, ms: ms})
							sr.mu.Unlock()
						}
						r.op(err)
					}()
				}
				inner.Wait()
			}
		}()
	}
	wg.Wait()
	sr.wall += time.Since(t0).Seconds()
	sr.cpu += cpuSeconds() - c0
}

// latencies returns the samples' milliseconds, filtered by keep.
func (sr *serveRun) latencies(keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range sr.samples {
		if keep(s) {
			out = append(out, s.ms)
		}
	}
	return out
}

// serveGoldenIdentities is how many leading identities of the default
// seed's stream golden.json records.
const serveGoldenIdentities = 24

func runServeMixed(o *options, r *report) error {
	scenarios, err := loadScenarios()
	if err != nil {
		return err
	}
	tenants := filepath.Join(o.workDir, "tenants.json")
	if err := os.WriteFile(tenants, []byte(tenantsFile), 0o644); err != nil {
		return err
	}
	// Set-up is repeated, each node torn down before the next is built. The
	// timed builds open no journal: on a shared disk, creating a journal's
	// directories and file costs from 0.1 to over 1 ms depending on the
	// file system's state, and grows with every directory made before it,
	// so it would drown the set-up work itself. The node that serves the
	// window is built once more, with its journal; that build is printed
	// on its own.
	setup, err := medianSetup(r, 101, func(int) (time.Duration, error) {
		t0 := time.Now()
		n, err := startServeNode("", tenants)
		d := time.Since(t0)
		if err == nil {
			n.close()
		}
		return d, err
	})
	if err != nil {
		return err
	}
	t0 := time.Now()
	node, err := startServeNode(filepath.Join(o.workDir, "journal"), tenants)
	if err != nil {
		return err
	}
	defer node.close()
	r.note("journaled set-up %.6g s (the node that serves the window)", time.Since(t0).Seconds())
	r.e2e["setup_s"] = setup

	stream := newServeStream(o.seed, scenarios)
	sr := &serveRun{bodies: map[int][]byte{}, misses: map[int]ledgerSummary{}}
	var plainP50 float64
	if o.trace {
		sr.window(node.http.url, stream, o.seconds/2, r)
		plainP50 = median(sr.latencies(func(sample) bool { return true }))
		sr.samples, sr.wall, sr.cpu = nil, 0, 0
		prof, err := profiled(func() error {
			sr.window(node.http.url, stream, o.seconds/2, r)
			return nil
		})
		if err != nil {
			return err
		}
		prof.fill(r)
	} else {
		sr.window(node.http.url, stream, o.seconds, r)
	}

	all := sr.latencies(func(sample) bool { return true })
	if len(all) == 0 {
		return fmt.Errorf("no request completed")
	}
	var cycles float64
	for _, l := range sr.misses {
		cycles += float64(l.Cycles)
	}
	r.e2e["op_ms"] = median(all)
	// Throughput is per CPU second of the whole process, server and client
	// together: on a shared host, wall seconds also count the time other
	// guests took the processors, in bursts that can cover a whole run.
	r.e2e["ops_per_s"] = float64(len(all)) / sr.cpu
	r.e2e["simcycles_per_s"] = cycles / sr.cpu
	r.note("req_p50_ms %.3f over %d requests from %d closed-loop clients; req_per_s %.2f per wall second, %.2f per CPU second", median(all), len(all), serveClients, float64(len(all))/sr.wall, float64(len(all))/sr.cpu)
	if pct, v, ok := tail(all); ok {
		r.note("req_tail_ms p%g %.3f (%d samples)", pct, v, len(all))
	}

	// Golden: the first identities' ledgers, run now if the window ended
	// before reaching them.
	golden := map[string]any{}
	for id := 0; id < serveGoldenIdentities; id++ {
		it := stream.item(id)
		body, ok := sr.bodies[id]
		if !ok {
			b, cache, err := postRun(node.http.url, it.tenant, it.body)
			if err != nil {
				return err
			}
			if err := sr.check(it, b, cache); err != nil {
				r.op(err)
			}
			body = b
		}
		golden[strconv.Itoa(id)] = fmt.Sprintf("%x", sha256.Sum256(body))
	}
	if gerr := recordOrCheck(o, golden); gerr != nil {
		r.op(gerr)
	}

	if o.trace {
		r.layer["bench.tracing_overhead"] = median(all)/plainP50 - 1
		if err := serveLayerMetrics(node.http.url, sr, r); err != nil {
			return err
		}
		if err := serviceSimLayers(o.seed, r); err != nil {
			return err
		}
	}
	return nil
}

// serveLayerMetrics fills the serve, tenant and scenario metrics from the
// client's samples and one /metrics scrape.
func serveLayerMetrics(url string, sr *serveRun, r *report) error {
	byCache := func(c string) []float64 { return sr.latencies(func(s sample) bool { return s.cache == c }) }
	r.layer["serve.hit_p50_ms"] = median(byCache("hit"))
	r.layer["serve.miss_p50_ms"] = median(byCache("miss"))
	r.layer["serve.coalesced_p50_ms"] = median(byCache("coalesced"))
	r.layer["serve.hit_ratio"] = float64(len(byCache("hit"))) / float64(len(sr.samples))
	r.layer["scenario.miss_p50_ms"] = median(sr.latencies(func(s sample) bool { return s.kind == kindScenario && s.cache == "miss" }))
	m, err := scrape(url)
	if err != nil {
		return err
	}
	if v, ok := histQuantile(m, "dbpserved_queue_wait_seconds", nil, 0.5); ok {
		r.layer["serve.queue_wait_p50_ms"] = v * 1000
	}
	for _, lane := range []string{"interactive", "batch"} {
		if v, ok := histQuantile(m, "dbpserved_queue_wait_seconds", map[string]string{"lane": lane}, 0.5); ok {
			r.layer["tenant.wait_p50_ms."+lane] = v * 1000
		}
	}
	if v, ok := histQuantile(m, "dbpserved_run_seconds", nil, 0.5); ok {
		r.layer["serve.run_p50_s"] = v
	}
	r.layer["serve.rejected"] = promSum(m, "dbpserved_rejected_total", nil)
	r.layer["tenant.quota_rejections"] = promSum(m, "dbpserved_quota_rejections_total", nil)
	var act, rd, wr, cycles float64
	for _, l := range sr.misses {
		act += float64(l.Counters["dram.activates"])
		rd += float64(l.Counters["dram.reads"])
		wr += float64(l.Counters["dram.writes"])
		cycles += float64(l.Cycles)
	}
	r.layer["dram.activates"], r.layer["dram.reads"], r.layer["dram.writes"] = act, rd, wr
	r.layer["sim.simcycles"] = cycles
	return nil
}

// serviceSimLayers measures the simulator layers under a service workload
// on one representative cold request (W4-M1 at the service budgets):
// ledger build, NewSystem, skipping, hooks, and the per-layer replay.
func serviceSimLayers(seed int64, r *report) error {
	mix, _ := dbpsim.MixByName("W4-M1")
	w := simWorkload{mix: mix, policies: []dbpsim.PolicyPoint{{Label: "FRFCFS", Scheduler: dbpsim.SchedFRFCFS, Partition: dbpsim.PartNone}},
		warmup: serveWarmup, measure: serveMeasure}
	in := &inputStats{cfg: simConfig(len(mix.Members), seed)}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	out, err := w.experiment(in.cfg, nil)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	r.layer["sim.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	in.last, in.ref = out, []runDigest{digestRun("FRFCFS", out.runs[0])}
	_, _, ledgerMS, err := w.checkOutputs(in, r)
	if err != nil {
		return err
	}
	r.layer["obs.ledger_ms"] = ledgerMS
	r.layer["sim.alone_s"] = sum(out.alone)
	r.layer["sim.shared_s"] = sum(out.shared)
	return w.traceLayers(in.cfg, r)
}
