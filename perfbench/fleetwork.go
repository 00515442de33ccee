package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"dbpsim"
	"dbpsim/internal/fleet"
	"dbpsim/internal/serve"
)

// fleetHeartbeat is the workers' heartbeat interval; workers learn the
// member set from join responses, so the ring converges one beat after the
// last join.
const fleetHeartbeat = 50 * time.Millisecond

// fleetNode is an in-process fleet: a coordinator and two workers, each
// worker with one pool slot, all on loopback listeners.
type fleetNode struct {
	coord     *fleet.Coordinator
	coordHTTP *httpServer
	workers   []*fleetWorker
}

type fleetWorker struct {
	fw   *fleet.Worker
	srv  *serve.Server
	http *httpServer
}

func startFleet() (*fleetNode, error) {
	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{
		HeartbeatTimeout: 5 * time.Second, CellTimeout: time.Minute, Logger: quietLogger(),
	})
	if err != nil {
		return nil, err
	}
	n := &fleetNode{coord: coord}
	n.coordHTTP, err = listen(coord)
	if err != nil {
		_ = coord.Close()
		return nil, err
	}
	for _, id := range []string{"w1", "w2"} {
		w, err := startFleetWorker(id, n.coordHTTP.url)
		if err != nil {
			n.close()
			return nil, err
		}
		n.workers = append(n.workers, w)
	}
	if err := n.converge(); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// startFleetWorker wires a worker the way dbpserved -join does.
func startFleetWorker(id, coordURL string) (*fleetWorker, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	url := "http://" + ln.Addr().String()
	fw, err := fleet.NewWorker(fleet.WorkerOptions{
		ID: id, Advertise: url, Coordinator: coordURL,
		HeartbeatInterval: fleetHeartbeat, Logger: quietLogger(),
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	srv, err := serve.New(serve.Options{
		Workers: 1, Logger: quietLogger(),
		Peers: fw.Consult(), OnCheckpoint: fw.OnCheckpoint, ExtraMetrics: fw.ExtraMetrics,
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	fw.Attach(srv)
	w := &fleetWorker{fw: fw, srv: srv, http: &httpServer{hs: &http.Server{Handler: fw}, url: url}}
	w.http.wg.Add(1)
	go func() {
		defer w.http.wg.Done()
		_ = w.http.hs.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fw.Start(ctx); err != nil {
		w.close()
		return nil, fmt.Errorf("worker %s join: %w", id, err)
	}
	return w, nil
}

func (w *fleetWorker) close() {
	w.fw.Stop()
	w.http.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = w.srv.Close(ctx) // on timeout in-flight runs are canceled; nothing to report
}

// converge waits until the coordinator counts every worker live, then for
// two more heartbeats so each worker has learned the full member set.
func (n *fleetNode) converge() error {
	end := time.Now().Add(10 * time.Second)
	for {
		resp, err := httpClient.Get(n.coordHTTP.url + "/healthz")
		if err == nil {
			var h struct {
				Live int `json:"workers_live"`
			}
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && h.Live == len(n.workers) {
				time.Sleep(2 * fleetHeartbeat)
				return nil
			}
		}
		if time.Now().After(end) {
			return fmt.Errorf("fleet did not converge in 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (n *fleetNode) close() {
	for _, w := range n.workers {
		w.close()
	}
	n.coordHTTP.close()
	_ = n.coord.Close() // in-memory coordinator: nothing to flush
}

// fleetMixes are the 4-core mixes sweeps draw from.
var fleetMixes = []string{"W4-L1", "W4-M1", "W4-M2", "W4-H1"}

// sweepRound is one sweep of the seeded stream, plus the direct runs the
// client sends around it.
type sweepRound struct {
	req fleet.SweepRequest
	// warm is a fresh cell of this sweep sent straight to a seeded-random
	// worker first (owner forwarding when that worker is not the owner).
	warm    []byte
	warmDst int
	// checkDst picks, per cell, the worker that re-serves it directly
	// (a peer cache hit when that worker is not the owner).
	checkDst []int
}

// sweepStream generates rounds from the seed. Rounds come in pairs that
// share a simulation seed: the first covers mixes {A, B}, the second
// {B, C}, so half of every second sweep is already cached at its owner.
type sweepStream struct {
	rng   *rand.Rand
	seed  int64
	round int
	pair  []string
}

func newSweepStream(seed int64) *sweepStream {
	return &sweepStream{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

func (s *sweepStream) next() sweepRound {
	r := s.round
	s.round++
	if r%2 == 0 {
		perm := s.rng.Perm(len(fleetMixes))
		s.pair = []string{fleetMixes[perm[0]], fleetMixes[perm[1]], fleetMixes[perm[2]]}
	}
	mixes := s.pair[:2]
	if r%2 == 1 {
		mixes = s.pair[1:]
	}
	warm, meas := uint64(serveWarmup), uint64(serveMeasure)
	simSeed := s.seed*1_000_003 + int64(r/2)
	sr := sweepRound{req: fleet.SweepRequest{
		Mixes: append([]string(nil), mixes...), Schedulers: []string{"frfcfs"},
		Partitions: []string{"none", "dbp"}, Warmup: &warm, Measure: meas, Seed: &simSeed,
	}}
	if r%2 == 1 {
		sr.warm = cellBody(mixes[1], "frfcfs", "none", warm, meas, simSeed)
		sr.warmDst = s.rng.Intn(2)
	}
	for i := 0; i < len(mixes)*2; i++ {
		sr.checkDst = append(sr.checkDst, s.rng.Intn(2))
	}
	return sr
}

// cellBody is the single-run request equivalent to one sweep cell.
func cellBody(mix, scheduler, partition string, warmup, measure uint64, seed int64) []byte {
	b, _ := json.Marshal(map[string]any{
		"mix": mix, "scheduler": scheduler, "partition": partition,
		"warmup": warmup, "measure": measure, "seed": seed,
	}) // strings and numbers always encode
	return b
}

// fleetCell is one completed sweep cell as the client saw it.
type fleetCell struct {
	key  string // mix/scheduler/partition/seed
	body []byte // equivalent single-run request
	sha  string
	ms   float64 // from submitting the sweep to receiving this line
}

// sweep streams one sweep and returns its cells.
func sweep(url string, req fleet.SweepRequest) ([]fleetCell, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	resp, err := httpClient.Post(url+"/v1/sweeps", "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("POST /v1/sweeps: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var cells []fleetCell
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		var line struct {
			fleet.SweepResult
			Summary bool `json:"summary"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("sweep line: %w", err)
		}
		if line.Summary {
			continue
		}
		if line.Status != "done" {
			return nil, fmt.Errorf("sweep cell %s %s/%s: %s", line.Mix, line.Scheduler, line.Partition, line.Status)
		}
		cells = append(cells, fleetCell{
			key:  fmt.Sprintf("%s/%s/%s/%d", line.Mix, line.Scheduler, line.Partition, *req.Seed),
			body: cellBody(line.Mix, line.Scheduler, line.Partition, *req.Warmup, req.Measure, *req.Seed),
			sha:  line.LedgerSHA256,
			ms:   ms,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(cells) != 2*len(req.Mixes) {
		return nil, fmt.Errorf("sweep returned %d cells, want %d", len(cells), 2*len(req.Mixes))
	}
	return cells, nil
}

// fleetRun accumulates one measurement window.
type fleetRun struct {
	cellMS    []float64
	sweepWall float64
	sweepCPU  float64 // process CPU seconds spent while sweeps streamed
	answered  int                  // every run the fleet answered, sweep cells and direct posts
	cells     map[string]fleetCell // every distinct cell seen, by key
	order     []string             // keys in first-seen order
}

// window runs rounds of the sweep stream until the window closes.
func (fr *fleetRun) window(n *fleetNode, stream *sweepStream, seconds float64, r *report) {
	end := deadline(seconds)
	for time.Now().Before(end) {
		rd := stream.next()
		if rd.warm != nil {
			sp := r.spans.start("fleet.direct.warm", 0)
			_, _, err := postRun(n.workers[rd.warmDst].http.url, "", rd.warm)
			r.spans.end(sp)
			fr.answered++
			r.op(err)
		}
		sp := r.spans.start("fleet.sweep", 0)
		t0, c0 := time.Now(), cpuSeconds()
		cells, err := sweep(n.coordHTTP.url, rd.req)
		fr.sweepWall += time.Since(t0).Seconds()
		fr.sweepCPU += cpuSeconds() - c0
		r.spans.end(sp)
		if err != nil {
			r.op(err)
			continue
		}
		fr.answered += len(cells)
		for i, c := range cells {
			fr.cellMS = append(fr.cellMS, c.ms)
			// Cross-path check: the same run posted straight to a worker
			// must return the bytes the sweep's ledger hash names.
			sp := r.spans.start("fleet.direct.check", 0)
			body, _, err := postRun(n.workers[rd.checkDst[i]].http.url, "", c.body)
			r.spans.end(sp)
			fr.answered++
			if err == nil {
				if got := fmt.Sprintf("%x", sha256.Sum256(body)); got != c.sha {
					err = fmt.Errorf("cell %s: direct run hashes %s, sweep ledger_sha256 %s", c.key, got[:12], c.sha)
				}
			}
			r.op(err)
			if _, seen := fr.cells[c.key]; !seen {
				fr.cells[c.key] = c
				fr.order = append(fr.order, c.key)
			}
		}
	}
}

// fleetGoldenRounds is how many leading rounds of the default seed's
// stream golden.json records.
const fleetGoldenRounds = 4

func runFleetSweep(o *options, r *report) error {
	var node *fleetNode
	setup, err := medianSetup(r, 3, func(int) (time.Duration, error) {
		if node != nil {
			node.close()
		}
		t0 := time.Now()
		n, err := startFleet()
		d := time.Since(t0)
		node = n
		return d, err
	})
	if node != nil {
		defer node.close()
	}
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup

	stream := newSweepStream(o.seed)
	fr := &fleetRun{cells: map[string]fleetCell{}}
	var plainP50 float64
	if o.trace {
		fr.window(node, stream, o.seconds/2, r)
		plainP50 = median(fr.cellMS)
		fr.cellMS, fr.sweepWall, fr.sweepCPU = nil, 0, 0
		prof, err := profiled(func() error {
			fr.window(node, stream, o.seconds/2, r)
			return nil
		})
		if err != nil {
			return err
		}
		prof.fill(r)
	} else {
		fr.window(node, stream, o.seconds, r)
	}
	if len(fr.cellMS) == 0 {
		return fmt.Errorf("no sweep cell completed")
	}

	// Every distinct cell must hash like the same request on a single node
	// outside the fleet; the first rounds' hashes are the golden digests.
	single, err := dbpsim.NewServer(dbpsim.ServerOptions{Workers: 2, Logger: quietLogger()})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = single.Close(ctx) // idle by now
	}()
	singleSHA := func(body []byte) (string, ledgerSummary, error) {
		rec := httptest.NewRecorder()
		single.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
		if rec.Code/100 != 2 {
			return "", ledgerSummary{}, fmt.Errorf("single node: %d %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		var l ledgerSummary
		err := json.Unmarshal(rec.Body.Bytes(), &l)
		return fmt.Sprintf("%x", sha256.Sum256(rec.Body.Bytes())), l, err
	}
	// Two requests at a time keep both of the single node's worker slots busy.
	cellCycles := make([]float64, len(fr.order))
	errs := make([]error, len(fr.order))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i, k := range fr.order {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			c := fr.cells[k]
			sha, l, err := singleSHA(c.body)
			switch {
			case err != nil:
				errs[i] = err
			case sha != c.sha:
				r.op(fmt.Errorf("cell %s: fleet ledger_sha256 %s != single-node %s", k, c.sha[:12], sha[:12]))
			}
			cellCycles[i] = float64(l.Cycles)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	cycles := sum(cellCycles)
	golden := map[string]any{}
	gs := newSweepStream(o.seed)
	for i := 0; i < fleetGoldenRounds; i++ {
		rd := gs.next()
		for _, mix := range rd.req.Mixes {
			for _, part := range rd.req.Partitions {
				body := cellBody(mix, "frfcfs", part, *rd.req.Warmup, rd.req.Measure, *rd.req.Seed)
				sha, _, err := singleSHA(body)
				if err != nil {
					return err
				}
				golden[fmt.Sprintf("%s/frfcfs/%s/%d", mix, part, *rd.req.Seed)] = sha
			}
		}
	}
	if gerr := recordOrCheck(o, golden); gerr != nil {
		r.op(gerr)
	}

	// The gated figures are per CPU second of the whole process (fleet and
	// client together) while sweeps streamed: two workers simulate at once
	// on a shared host, and wall seconds also count the time other guests
	// took either processor, in bursts that can cover a whole run. Cell
	// latency and cells per wall second are printed beside them.
	// simcycles_per_s counts each distinct cell's shared run once: repeats
	// are cache hits somewhere in the fleet.
	cells := float64(len(fr.cellMS))
	r.e2e["op_ms"] = 1000 * fr.sweepCPU / cells
	r.e2e["ops_per_s"] = cells / fr.sweepCPU
	r.e2e["simcycles_per_s"] = cycles / fr.sweepCPU
	r.note("sweep_cells_per_s %.2f per wall second over %d cells; cell_mean_ms %.3f, cell_p50_ms %.3f (client-side, sweep submit to line)", cells/fr.sweepWall, len(fr.cellMS), sum(fr.cellMS)/cells, median(fr.cellMS))
	if pct, v, ok := tail(fr.cellMS); ok {
		r.note("cell_tail_ms p%g %.3f (%d samples)", pct, v, len(fr.cellMS))
	}

	if o.trace {
		r.layer["bench.tracing_overhead"] = median(fr.cellMS)/plainP50 - 1
		if err := fleetLayerMetrics(node, fr.answered, r); err != nil {
			return err
		}
		r.layer["sim.simcycles"] = cycles
		if err := serviceSimLayers(o.seed, r); err != nil {
			return err
		}
	}
	return nil
}

// fleetLayerMetrics scrapes the coordinator and every worker. runs is
// every run the fleet answered: sweep cells plus direct posts.
func fleetLayerMetrics(n *fleetNode, runs int, r *report) error {
	var hits, misses, forwards, executed float64
	for _, w := range n.workers {
		m, err := scrape(w.http.url)
		if err != nil {
			return err
		}
		hits += promSum(m, "dbpfleet_peer_cache_hits_total", nil)
		misses += promSum(m, "dbpfleet_peer_cache_misses_total", nil)
		forwards += promSum(m, "dbpfleet_forwards_total", nil)
		executed += promSum(m, "dbpserved_runs_executed_total", nil)
	}
	// With two workers every consult probes exactly one peer.
	r.layer["fleet.hops_per_cell"] = (hits + misses + forwards) / float64(runs)
	if hits+misses > 0 {
		r.layer["fleet.peer_hit_ratio"] = hits / (hits + misses)
	}
	r.layer["fleet.runs_executed"] = executed
	m, err := scrape(n.coordHTTP.url)
	if err != nil {
		return err
	}
	if v, ok := histQuantile(m, "dbpfleet_sweep_cell_seconds", nil, 0.5); ok {
		r.layer["fleet.cell_p50_ms"] = v * 1000
	}
	return nil
}
