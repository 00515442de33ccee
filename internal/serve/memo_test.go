package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dbpsim/internal/obs"
	"dbpsim/internal/tenant"
)

// memoLen reports how many resolved runs the server's memo holds.
func memoLen(s *Server) int {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return len(s.memo.runs)
}

// memoHolds reports whether the server's memo holds body.
func memoHolds(s *Server, body string) bool {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	_, ok := s.memo.runs[sha256.Sum256([]byte(body))]
	return ok
}

// committedScenarioBody is a serve-mixed style request carrying the
// committed diurnal scenario document at a quick budget.
func committedScenarioBody(tb testing.TB) string {
	tb.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "diurnal.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return fmt.Sprintf(`{"scenario": %s, "warmup": 1000, "measure": 3000, "seed": 7}`, doc)
}

// TestMemoResolvesLikeAFreshResolve pins the memo's premise: for a mix and
// a scenario body, the first resolve hands back exactly what a fresh
// resolve returns, the memoised entry carries its run key and cost, and
// errors are never stored.
func TestMemoResolvesLikeAFreshResolve(t *testing.T) {
	var m resolveMemo
	for _, body := range []string{quickBody, committedScenarioBody(t)} {
		want, apiErr := resolveBody([]byte(body), 0)
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		wantMemo := memoRun{key: want.key, est: tenant.EstimateRun(want.warmup + want.measure)}
		mr, fresh, apiErr := m.resolve([]byte(body))
		if apiErr != nil || fresh == nil || !reflect.DeepEqual(*fresh, want) || mr != wantMemo {
			t.Fatalf("first resolve differs from a fresh resolve (%v)", apiErr)
		}
		mr, fresh, apiErr = m.resolve([]byte(body))
		if apiErr != nil || fresh != nil || mr != wantMemo {
			t.Fatalf("memoised resolve: entry %+v, fresh run %v, error %v", mr, fresh != nil, apiErr)
		}
	}
	if _, _, apiErr := m.resolve([]byte(`{"mix": "W99-X"}`)); apiErr == nil {
		t.Fatal("unknown mix resolved")
	}
	if len(m.runs) != 2 {
		t.Errorf("memo holds %d runs, want 2", len(m.runs))
	}
}

// TestMemoHitMatchesFirstResponse checks that a cache hit answered from a
// memoised resolve is byte- and header-identical to one answered from a
// fresh resolve, and that both carry the miss's ledger bytes.
func TestMemoHitMatchesFirstResponse(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	resp, miss := postRun(t, ts.URL, quickBody)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first submit: %d %s", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !memoHolds(s, quickBody) {
		t.Fatal("a successful resolve was not memoised")
	}
	memoResp, memoBody := postRun(t, ts.URL, quickBody)

	s.memo.mu.Lock()
	s.memo.runs = nil
	s.memo.mu.Unlock()
	freshResp, freshBody := postRun(t, ts.URL, quickBody)

	for _, r := range []*http.Response{memoResp, freshResp} {
		if r.StatusCode != http.StatusOK || r.Header.Get("X-Cache") != "hit" {
			t.Fatalf("repeat submit: %d %s", r.StatusCode, r.Header.Get("X-Cache"))
		}
		r.Header.Del("Date")
	}
	if !bytes.Equal(memoBody, freshBody) || !bytes.Equal(memoBody, miss) {
		t.Error("memoised hit bytes differ from a fresh hit or from the miss")
	}
	if !reflect.DeepEqual(memoResp.Header, freshResp.Header) {
		t.Errorf("headers differ:\n  memoised %v\n  fresh    %v", memoResp.Header, freshResp.Header)
	}
}

// TestMemoNeverStoresErrors sends each rejected body twice: the second
// send gets the first one's status and bytes, and the memo stays empty.
func TestMemoNeverStoresErrors(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, MaxInstructions: 100})
	cases := []struct {
		name, body string
		status     int
	}{
		{"malformed", `{"mix": "W4-M1"`, http.StatusBadRequest},
		{"unknown field", `{"mix": "W4-M1", "bogus": 1}`, http.StatusBadRequest},
		{"over the instruction cap", `{"mix": "W4-M1"}`, http.StatusBadRequest},
		{"budget overflow", overflowBudgetBody, http.StatusBadRequest},
		{"over the body cap", `{"mix": "` + string(bytes.Repeat([]byte("x"), MaxBodyBytes)) + `"}`,
			http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		first, firstBody := postRun(t, ts.URL, c.body)
		second, secondBody := postRun(t, ts.URL, c.body)
		if first.StatusCode != c.status || second.StatusCode != c.status {
			t.Errorf("%s: statuses %d then %d, want %d", c.name, first.StatusCode, second.StatusCode, c.status)
		}
		if !bytes.Equal(firstBody, secondBody) {
			t.Errorf("%s: second error differs:\n  %s\n  %s", c.name, firstBody, secondBody)
		}
	}
	if n := memoLen(s); n != 0 {
		t.Errorf("memo stored %d rejected bodies", n)
	}
}

// TestMemoKeepsAdmissionChecks sends a memoised body with a wrong API key,
// a bad lane and a bad ?timeout=: each still gets its refusal.
func TestMemoKeepsAdmissionChecks(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, Tenants: testRegistry(t)})
	runs := ts.URL + "/v1/runs"
	if resp, data := authedPost(t, runs, "k-vip", quickBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("good key status %d: %s", resp.StatusCode, data)
	}
	if !memoHolds(s, quickBody) {
		t.Fatal("body not memoised")
	}
	cases := []struct {
		name, url, key string
		status         int
		code           string
	}{
		{"wrong key", runs, "k-wrong", http.StatusUnauthorized, CodeUnauthorized},
		{"no key", runs, "", http.StatusUnauthorized, CodeUnauthorized},
		{"bad lane", runs + "?lane=express", "k-vip", http.StatusBadRequest, CodeBadRequest},
		{"bad timeout", runs + "?timeout=soon", "k-vip", http.StatusBadRequest, CodeBadRequest},
		{"negative timeout", runs + "?timeout=-1s", "k-vip", http.StatusBadRequest, CodeBadRequest},
	}
	for _, c := range cases {
		resp, data := authedPost(t, c.url, c.key, quickBody)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d: %s", c.name, resp.StatusCode, c.status, data)
			continue
		}
		if e := decodeAPIError(t, data); e.Code != c.code {
			t.Errorf("%s: code %q, want %q", c.name, e.Code, c.code)
		}
	}
}

// TestMemoBound fills the memo past its bound: it never holds more than
// maxMemoRuns runs, and it always holds the body it resolved last.
func TestMemoBound(t *testing.T) {
	var m resolveMemo
	for i := 0; i < maxMemoRuns+10; i++ {
		body := []byte(fmt.Sprintf(`{"mix": "W4-M1", "seed": %d}`, i))
		if _, _, apiErr := m.resolve(body); apiErr != nil {
			t.Fatal(apiErr)
		}
		if len(m.runs) > maxMemoRuns {
			t.Fatalf("memo holds %d runs after %d bodies, bound %d", len(m.runs), i+1, maxMemoRuns)
		}
		if _, ok := m.runs[sha256.Sum256(body)]; !ok {
			t.Fatalf("body %d not memoised", i)
		}
	}
	if len(m.runs) != maxMemoRuns {
		t.Errorf("memo holds %d runs at the bound, want %d", len(m.runs), maxMemoRuns)
	}
}

// TestMemoEntriesStaySmall sends near-MaxBodyBytes scenario bodies without
// an API key. Each gets its 401; the one that resolves to a short run key
// is memoised as a small entry, and the one whose run key passes
// maxMemoKeyBytes (a long scenario name) is not memoised at all, so no
// request can make the memo keep its body's bulk.
func TestMemoEntriesStaySmall(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, Tenants: testRegistry(t)})
	huge := strings.Repeat("x", MaxBodyBytes-8*1024)
	bodies := map[string]string{
		"long description": strings.Replace(committedScenarioBody(t),
			`"description": "`, `"description": "`+huge, 1),
		"long name": strings.Replace(committedScenarioBody(t),
			`"name": "diurnal"`, `"name": "`+huge+`"`, 1),
	}
	for name, body := range bodies {
		if len(body) > MaxBodyBytes {
			t.Fatalf("%s body is %d bytes, over the %d cap", name, len(body), MaxBodyBytes)
		}
		for i := 0; i < 2; i++ {
			if resp, data := authedPost(t, ts.URL+"/v1/runs", "", body); resp.StatusCode != http.StatusUnauthorized {
				t.Fatalf("%s: status %d, want 401: %.200s", name, resp.StatusCode, data)
			}
		}
	}
	if !memoHolds(s, bodies["long description"]) {
		t.Error("long-description body was not memoised")
	}
	if memoHolds(s, bodies["long name"]) {
		t.Error("a body whose run key passes maxMemoKeyBytes was memoised")
	}
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	for _, mr := range s.memo.runs {
		if len(mr.key) > maxMemoKeyBytes {
			t.Errorf("memoised key of %d bytes, bound %d", len(mr.key), maxMemoKeyBytes)
		}
	}
}

// TestMemoHitRerunsAbandonedRun resubmits a memoised body whose first run
// was abandoned: the run is neither cached nor in flight, so the request
// resolves the body again and starts a fresh run.
func TestMemoHitRerunsAbandonedRun(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int64
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	s.testHookBeforeRun = func() {
		if calls.Add(1) == 1 {
			<-release
		}
	}
	resp, data := postPath(t, ts.URL+"/v1/runs?timeout=50ms", quickBody)
	close(release)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("abandoned run: status %d: %s", resp.StatusCode, data)
	}
	if !memoHolds(s, quickBody) {
		t.Fatal("body not memoised")
	}
	resp, data = postRun(t, ts.URL, quickBody)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("resubmission: %d %s: %s", resp.StatusCode, resp.Header.Get("X-Cache"), data)
	}
	if _, err := obs.UnmarshalLedger(data); err != nil {
		t.Fatalf("rerun ledger does not parse: %v", err)
	}
}

// TestConcurrentIdenticalSubmits races identical submits through a miss
// and its coalesced joins, then through memoised cache hits; every
// response carries the same bytes. Run under -race it also checks the
// memo's locking.
func TestConcurrentIdenticalSubmits(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	for _, body := range []string{quickBody, scenarioBody(3)} {
		var want []byte
		for round := 0; round < 2; round++ {
			const n = 6
			var wg sync.WaitGroup
			results := make([][]byte, n)
			codes := make([]int, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader([]byte(body)))
					if err != nil {
						return
					}
					defer resp.Body.Close()
					codes[i] = resp.StatusCode
					var buf bytes.Buffer
					_, _ = buf.ReadFrom(resp.Body)
					results[i] = buf.Bytes()
				}(i)
			}
			wg.Wait()
			for i := range results {
				if codes[i] != http.StatusOK {
					t.Fatalf("round %d request %d: status %d: %s", round, i, codes[i], results[i])
				}
				if want == nil {
					want = results[i]
					if _, err := obs.UnmarshalLedger(want); err != nil {
						t.Fatalf("served ledger does not parse: %v", err)
					}
				}
				if !bytes.Equal(results[i], want) {
					t.Fatalf("round %d request %d: bytes differ", round, i)
				}
			}
		}
	}
}

// submitCacheHitBodies are the requests BenchmarkSubmitCacheHit repeats:
// a named-mix run and a committed-scenario run, as serve-mixed sends them.
func submitCacheHitBodies(tb testing.TB) []struct{ name, body string } {
	return []struct{ name, body string }{
		{"mix", `{"mix": "W4-M1", "scheduler": "tcm", "partition": "dbp", "warmup": 1000, "measure": 3000, "seed": 7}`},
		{"scenario", committedScenarioBody(tb)},
	}
}

// benchmarkSubmitCacheHit drives the submit handler directly with one body
// that is already a cache hit: the path a repeated request takes.
func benchmarkSubmitCacheHit(b *testing.B, body string) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	s, err := New(Options{Workers: 1, Logger: quiet})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close(context.Background())
	submit := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader([]byte(body))))
		return w
	}
	if w := submit(); w.Code != http.StatusOK {
		b.Fatalf("warm-up run: %d %s", w.Code, w.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := submit(); w.Code != http.StatusOK || w.Header().Get("X-Cache") != "hit" {
			b.Fatalf("repeat submit: %d %s", w.Code, w.Header().Get("X-Cache"))
		}
	}
}

// BenchmarkSubmitCacheHit measures a cache hit through the submit handler,
// for a mix body and for a committed-scenario body.
func BenchmarkSubmitCacheHit(b *testing.B) {
	for _, c := range submitCacheHitBodies(b) {
		b.Run(c.name, func(b *testing.B) { benchmarkSubmitCacheHit(b, c.body) })
	}
}

// submitCacheHitAllocs are BenchmarkSubmitCacheHit's allocs/op bases, as
// recorded when the gate was set.
var submitCacheHitAllocs = map[string]float64{"mix": 33, "scenario": 35}

// allocLimit is the root package's work-count rule: zero stays zero,
// otherwise 5% plus 8. It must match allocLimit in the root package's
// workcount_test.go, so both gates hold allocs/op to one standard.
func allocLimit(base float64) float64 {
	if base == 0 {
		return 0
	}
	return base*1.05 + 8
}

// TestSubmitCacheHitAllocs gates the cache-hit path's allocations: each
// BenchmarkSubmitCacheHit body fails when its allocs/op passes allocLimit
// of its base.
func TestSubmitCacheHitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulations and a benchmark each")
	}
	bt := flag.Lookup("test.benchtime")
	defer bt.Value.Set(bt.Value.String())
	if err := bt.Value.Set("2000x"); err != nil {
		t.Fatal(err)
	}
	for _, c := range submitCacheHitBodies(t) {
		r := testing.Benchmark(func(b *testing.B) { benchmarkSubmitCacheHit(b, c.body) })
		if r.N == 0 {
			t.Errorf("%s: benchmark failed", c.name)
			continue
		}
		if a, lim := r.AllocsPerOp(), allocLimit(submitCacheHitAllocs[c.name]); float64(a) > lim {
			t.Errorf("%s allocs/op: %d, limit %.1f", c.name, a, lim)
		}
	}
}
