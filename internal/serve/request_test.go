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
