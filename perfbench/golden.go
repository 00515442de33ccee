package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// goldenJSON holds, per workload, the digests of every simulated output
// the default seed produces (see README.md for what each records).
//
//go:embed golden.json
var goldenJSON []byte

// goldenPath is where --write-golden records new digests, relative to the
// checkout root the benchmark runs from.
const goldenPath = "perfbench/golden.json"

// checkGolden compares each entry of got with the same key of the
// workload's recorded golden digests. Keys got lacks are not checked (a
// short window may not reach every input); a key golden.json lacks is a
// mismatch. It returns nil on a held-out seed, where golden digests do not
// apply.
func checkGolden(o *options, got map[string]any) error {
	if o.heldOut() {
		return nil
	}
	var all map[string]map[string]json.RawMessage
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want := all[o.workload]
	for _, k := range sortedKeys(got) {
		gotJSON, err := canonicalJSON(got[k])
		if err != nil {
			return err
		}
		w, ok := want[k]
		if !ok {
			return fmt.Errorf("golden.json has no %s entry %q", o.workload, k)
		}
		var wantV any
		if err := json.Unmarshal(w, &wantV); err != nil {
			return fmt.Errorf("golden.json %s %s: %w", o.workload, k, err)
		}
		wantJSON, err := canonicalJSON(wantV)
		if err != nil {
			return err
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			return fmt.Errorf("%s %s differs from golden.json:\n got  %s\n want %s", o.workload, k, gotJSON, wantJSON)
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// canonicalJSON encodes v with map keys sorted and numbers in Go's
// shortest exact form, so equal digests always encode identically.
func canonicalJSON(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var generic any
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	if err := dec.Decode(&generic); err != nil {
		return nil, err
	}
	return json.Marshal(generic)
}

// writeGolden records got as the workload's golden entry in the source
// tree's golden.json, keeping the other workloads' entries.
func writeGolden(o *options, got map[string]any) error {
	cur, err := os.ReadFile(goldenPath)
	if err != nil {
		return err
	}
	all := map[string]json.RawMessage{}
	if err := json.Unmarshal(cur, &all); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	b, err := canonicalJSON(got)
	if err != nil {
		return err
	}
	all[o.workload] = b
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(out, '\n'), 0o644)
}

// recordOrCheck writes the golden entry under --write-golden and checks it
// otherwise.
func recordOrCheck(o *options, got map[string]any) error {
	if o.writeGolden {
		return writeGolden(o, got)
	}
	return checkGolden(o, got)
}
