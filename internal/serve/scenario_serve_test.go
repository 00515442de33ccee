package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"dbpsim/internal/obs"
	"dbpsim/internal/scenario"
)

// scenarioBody returns a quick two-thread scenario request with the given
// scenario seed (same name, different content across seeds).
func scenarioBody(seed int) string {
	return fmt.Sprintf(`{
	  "scenario": {
	    "schema_version": 1,
	    "name": "serve-test",
	    "seed": %d,
	    "threads": [
	      {"name": "shifty", "phases": [
	        {"id": "calm", "bench": "povray-like", "duration_cycles": 2000},
	        {"id": "storm", "bench": "mcf-like"}
	      ]},
	      {"name": "steady", "phases": [{"id": "always", "bench": "gcc-like"}]}
	    ]
	  },
	  "partition": "dbp",
	  "warmup": 1000, "measure": 5000,
	  "config": {"SchedQuantumCPUCycles": 500, "DBP": {"QuantumCPUCycles": 1000}}
	}`, seed)
}

// TestScenarioRun submits a scenario request and checks the served ledger
// carries the scenario identity, the phase-labelled epoch series, and the
// shift record — and that the scenario hash lands in the config (and so in
// the cache key).
func TestScenarioRun(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, served := postRun(t, ts.URL, scenarioBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, served)
	}
	led, err := obs.UnmarshalLedger(served)
	if err != nil {
		t.Fatalf("served ledger does not parse: %v", err)
	}
	if led.Mix != "scenario:serve-test" {
		t.Errorf("mix = %q", led.Mix)
	}
	if led.Scenario != "serve-test" || led.ScenarioHash == "" {
		t.Errorf("scenario identity = %q/%q", led.Scenario, led.ScenarioHash)
	}
	var cfg struct {
		ScenarioHash string
	}
	if err := json.Unmarshal(led.Config, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.ScenarioHash != led.ScenarioHash {
		t.Errorf("config hash field %q != ledger scenario hash %q", cfg.ScenarioHash, led.ScenarioHash)
	}
	if len(led.Shifts) == 0 {
		t.Error("served scenario ledger has no shift record")
	}
	labelled := false
	for _, e := range led.Epochs {
		for _, th := range e.Threads {
			if th.Phase != "" {
				labelled = true
			}
		}
	}
	if !labelled {
		t.Error("served scenario ledger epochs carry no phase labels")
	}

	// Same request again: cache hit.
	resp2, _ := postRun(t, ts.URL, scenarioBody(1))
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Errorf("identical scenario request: X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}

	// Same scenario name, different content (seed): must NOT hit the cache
	// — the run key includes the scenario content hash, not just the name.
	resp3, body3 := postRun(t, ts.URL, scenarioBody(2))
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp3.StatusCode, body3)
	}
	if resp3.Header.Get("X-Cache") == "hit" {
		t.Error("scenario with different content hit the cache under the same name")
	}
}

// TestCommittedScenariosServe submits every committed scenarios/*.json
// document at a short budget: the served ledger parses and carries the
// document's name and content hash, an identical request hits the cache,
// and the same document with its seed bumped (same name, new content)
// misses it.
func TestCommittedScenariosServe(t *testing.T) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed scenario files under scenarios/")
	}
	_, ts := newTestServer(t, Options{})
	post := func(doc []byte) (*http.Response, []byte) {
		t.Helper()
		return postRun(t, ts.URL, fmt.Sprintf(`{"scenario": %s, "partition": "dbp", "warmup": 1000, "measure": 5000}`, doc))
	}
	for _, f := range files {
		doc, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := scenario.Decode(doc)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		resp, served := post(doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", f, resp.StatusCode, served)
		}
		led, err := obs.UnmarshalLedger(served)
		if err != nil {
			t.Fatalf("%s: served ledger does not parse: %v", f, err)
		}
		if led.Scenario != sc.Name || led.ScenarioHash != sc.Hash() {
			t.Errorf("%s: ledger identity %q/%q, want %q/%q", f, led.Scenario, led.ScenarioHash, sc.Name, sc.Hash())
		}
		if resp, _ := post(doc); resp.Header.Get("X-Cache") != "hit" {
			t.Errorf("%s: identical request: X-Cache %q, want hit", f, resp.Header.Get("X-Cache"))
		}
		sc.Seed++
		bumped, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		resp, data := post(bumped)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s with its seed bumped: status %d: %s", f, resp.StatusCode, data)
		}
		if resp.Header.Get("X-Cache") == "hit" {
			t.Errorf("%s: different content hit the cache under the same name", f)
		}
	}
}

// TestScenarioRequestValidation checks that malformed scenario documents
// fail the 400 path, not a worker.
func TestScenarioRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []string{
		`{"scenario": {"schema_version": 99, "name": "x", "threads": [{"name":"t","phases":[{"id":"p"}]}]}}`,
		`{"scenario": {"schema_version": 1, "name": "", "threads": [{"name":"t","phases":[{"id":"p"}]}]}}`,
		`{"scenario": {"schema_version": 1, "name": "x", "threads": []}}`,
		`{"scenario": {"schema_version": 1, "name": "x", "bogus": true, "threads": [{"name":"t","phases":[{"id":"p"}]}]}}`,
	}
	for i, body := range cases {
		resp, data := postRun(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d (want 400): %s", i, resp.StatusCode, data)
		}
	}
}
