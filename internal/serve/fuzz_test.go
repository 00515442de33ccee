package serve

import (
	"testing"
)

// FuzzDecodeRunRequest drives arbitrary bytes through the full request
// admission path — body decode plus resolve — asserting the only outcomes
// are a structured error or a fully-bound run. A panic here would be a
// panic on a worker-facing HTTP handler.
func FuzzDecodeRunRequest(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"mix": "W8-M1"}`,
		`{"mix": "W4-M1", "scheduler": "tcm", "partition": "dbp"}`,
		`{"benchmarks": ["mcf-like", "gcc-like"], "warmup": 1000, "measure": 5000}`,
		`{"mix": "W4-M1", "seed": -1}`,
		`{"mix": "W4-M1", "warmup": 0, "measure": 18446744073709551615}`,
		`{"mix": "W4-M1", "config": {"Geometry": {"BanksPerRank": 16}}}`,
		`{"mix": "W4-M1", "config": {"NoSuchKnob": 1}}`,
		`{"mix": 5}`,
		`[1, 2, 3]`,
		`{"mix": "W4-M1"}{"mix": "W4-M1"}`,
		"{\"mix\": \"W4-M1\", \"benchmarks\": [\"\\u0000\"]}",
		overflowBudgetBody,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, derr := decodeRunRequest(body)
		if derr != nil {
			if derr.Code != CodeBadRequest || derr.Message == "" {
				t.Fatalf("decode error is not a structured bad_request: %+v", derr)
			}
			return
		}
		rr, err := resolve(req, 0)
		if err != nil {
			return
		}
		expKey, err := rr.experimentKey()
		if err != nil || rr.key == "" || expKey == "" || rr.cfgHash == "" {
			t.Fatalf("resolved run missing identity (%v): %+v", err, rr)
		}
	})
}
