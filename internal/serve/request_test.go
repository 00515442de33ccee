package serve

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestResolveDefaults(t *testing.T) {
	rr, err := resolve(RunRequest{Mix: "W4-M1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rr.mix.Name != "W4-M1" || rr.mix.Cores() != 4 {
		t.Errorf("mix = %+v", rr.mix)
	}
	if rr.warmup != DefaultWarmup || rr.measure != DefaultMeasure {
		t.Errorf("budgets = %d/%d", rr.warmup, rr.measure)
	}
	if string(rr.sched) != "frfcfs" || string(rr.part) != "none" {
		t.Errorf("policy = %s/%s", rr.sched, rr.part)
	}
	if rr.base.Cores != 4 {
		t.Errorf("base cores = %d", rr.base.Cores)
	}
	if expKey, err := rr.experimentKey(); err != nil || rr.cfgHash == "" || rr.key == "" || expKey == "" {
		t.Errorf("identities missing (%v): %+v", err, rr)
	}
}

// TestRunIdentityPinned pins the run key and baseline key of two mix
// requests byte for byte. Journals on disk, the result cache and fleet ring
// placement all depend on these strings, so a change here is a format break.
func TestRunIdentityPinned(t *testing.T) {
	for _, tc := range []struct{ body, runKey, expKey string }{
		{
			`{"mix":"W4-M1","warmup":20000,"measure":50000}`,
			"c5413a589fd026a9f6c50afca328d03ffe62e35d98592eaf283029fa118f407f|W4-M1:mcf-like,lbm-like,h264-like,povray-like|w=20000|m=50000",
			"c0ef73b1e85add903e6e9518d17485146eefd096d7d73746b54c8b7c38b448a7|w=20000|m=50000",
		},
		{
			`{"mix":"W8-M1","scheduler":"tcm","partition":"dbp","seed":7,"config":{"TCMClusterThresh":0.1}}`,
			"7d39f7a20b00622217e11585ecbe0d4fe4d282a8a1b66e90a20423954efca461|W8-M1:mcf-like,libquantum-like,lbm-like,milc-like,gcc-like,h264-like,gobmk-like,calculix-like|w=200000|m=400000",
			"da61343ff2331b10f5b311b773d7ea3e519ac11b20ba8ca00bc33c959d738592|w=200000|m=400000",
		},
	} {
		runKey, expKey, apiErr := ResolveRequest([]byte(tc.body), 0)
		if apiErr != nil {
			t.Fatalf("%s: %v", tc.body, apiErr)
		}
		if runKey != tc.runKey {
			t.Errorf("%s: run key\n got %s\nwant %s", tc.body, runKey, tc.runKey)
		}
		if expKey != tc.expKey {
			t.Errorf("%s: baseline key\n got %s\nwant %s", tc.body, expKey, tc.expKey)
		}
	}
}

func TestResolveExplicitZeroWarmup(t *testing.T) {
	zero := uint64(0)
	rr, err := resolve(RunRequest{Mix: "W4-M1", Warmup: &zero}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rr.warmup != 0 {
		t.Errorf("explicit zero warmup became %d", rr.warmup)
	}
}

func TestResolveRejects(t *testing.T) {
	cases := []struct {
		name string
		req  RunRequest
		want string
	}{
		{"no workload", RunRequest{}, "needs a mix"},
		{"unknown mix", RunRequest{Mix: "W99-X"}, "unknown mix"},
		{"unknown benchmark", RunRequest{Benchmarks: []string{"ghost"}}, "unknown benchmark"},
		{"bad scheduler", RunRequest{Mix: "W4-M1", Scheduler: "lottery"}, "unknown scheduler"},
		{"bad partition", RunRequest{Mix: "W4-M1", Partition: "thirds"}, "unknown partition"},
		{"bad config", RunRequest{Mix: "W4-M1", Config: json.RawMessage(`{"NoSuchKnob": 1}`)}, "unknown field"},
	}
	for _, c := range cases {
		_, err := resolve(c.req, 0)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestResolveBudgetCap(t *testing.T) {
	if _, err := resolve(RunRequest{Mix: "W4-M1"}, 100); err == nil {
		t.Error("over-cap request accepted")
	}
	if _, err := resolve(RunRequest{Mix: "W4-M1"}, DefaultWarmup+DefaultMeasure); err != nil {
		t.Errorf("at-cap request rejected: %v", err)
	}
}

// TestRunKeyIdentity pins the content-address semantics: identical requests
// share a key; any change to mix, policy, budgets, seed or config moves it.
// overflowBudgetBody's warmup+measure wraps past 2^64 to 399,999.
const overflowBudgetBody = `{"mix": "W4-M1", "warmup": 18446744073709551615, "measure": 400000}`

// TestResolveCostRejectsBudgetOverflow pins the overflow guard: a budget
// whose sum wraps must be refused as bad_request, with or without a cap,
// instead of passing a cap and being priced at the wrapped sum.
func TestResolveCostRejectsBudgetOverflow(t *testing.T) {
	for _, limit := range []uint64{0, 1_000_000} {
		key, est, apiErr := ResolveCost([]byte(overflowBudgetBody), limit)
		if apiErr == nil || apiErr.Code != CodeBadRequest {
			t.Errorf("cap %d: key %q priced at %+v, error %+v; want bad_request", limit, key, est, apiErr)
		}
	}
}

func TestRunKeyIdentity(t *testing.T) {
	base := RunRequest{Mix: "W4-M1", Scheduler: "frfcfs", Partition: "dbp"}
	a, err := resolve(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := resolve(base, 0)
	if a.key != b.key {
		t.Errorf("identical requests got different keys:\n  %s\n  %s", a.key, b.key)
	}

	seed := int64(99)
	variants := []RunRequest{
		{Mix: "W4-M2", Scheduler: "frfcfs", Partition: "dbp"},
		{Mix: "W4-M1", Scheduler: "tcm", Partition: "dbp"},
		{Mix: "W4-M1", Scheduler: "frfcfs", Partition: "equal"},
		{Mix: "W4-M1", Scheduler: "frfcfs", Partition: "dbp", Measure: 10_000},
		{Mix: "W4-M1", Scheduler: "frfcfs", Partition: "dbp", Seed: &seed},
		{Mix: "W4-M1", Scheduler: "frfcfs", Partition: "dbp",
			Config: json.RawMessage(`{"Geometry": {"BanksPerRank": 16}}`)},
	}
	for i, v := range variants {
		rv, err := resolve(v, 0)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if rv.key == a.key {
			t.Errorf("variant %d collided with the base key", i)
		}
	}
}

// TestExperimentKeySharing pins baseline sharing: requests differing only
// in mix or policy share an experiment (one alone-run pool), while base
// config or budget changes split it.
func TestExperimentKeySharing(t *testing.T) {
	expKey := func(req RunRequest) string {
		t.Helper()
		rr, err := resolve(req, 0)
		if err != nil {
			t.Fatal(err)
		}
		key, err := rr.experimentKey()
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	a := expKey(RunRequest{Mix: "W4-M1", Partition: "dbp"})
	sameExp := []RunRequest{
		{Mix: "W4-M1", Scheduler: "tcm", Partition: "none"},
		{Mix: "W4-H1", Partition: "equal"},
	}
	for i, v := range sameExp {
		if expKey(v) != a {
			t.Errorf("sameExp %d: experiment not shared", i)
		}
	}
	diffExp := []RunRequest{
		{Mix: "W4-M1", Partition: "dbp", Measure: 10_000},
		{Mix: "W4-M1", Partition: "dbp", Config: json.RawMessage(`{"Geometry": {"BanksPerRank": 16}}`)},
	}
	for i, v := range diffExp {
		if expKey(v) == a {
			t.Errorf("diffExp %d: experiment wrongly shared", i)
		}
	}
}
