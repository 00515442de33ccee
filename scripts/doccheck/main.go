// Command doccheck keeps the reference docs honest. Every check runs in
// `make lint`:
//
//   - Scenario schema: every JSON object key used by the committed
//     scenarios/*.json files must be mentioned (as `key`) in
//     docs/SCENARIOS.md, so a new scenario field cannot land without docs.
//   - Service surface: every dbpserved command-line flag (parsed out of
//     cmd/dbpserved/main.go), every metric name literal, and every
//     "METHOD /path" route registered through HandleFunc/Handle in
//     internal/serve + internal/fleet + internal/tenant (test files
//     excluded) must appear somewhere in docs/SERVICE.md, docs/FLEET.md,
//     or README.md, so a new flag, metric or route cannot land
//     undocumented. In reverse, every dbpserved_*/dbpfleet_* name those
//     docs mention (histogram _bucket/_sum/_count suffixes stripped) must
//     be such a literal, every backticked `-name` they mention must be a
//     flag declared in some cmd/*/main.go, and every backticked
//     `METHOD /v1/...` (query string stripped) must be such a route, so
//     deleting a metric, flag or route cannot leave stale docs behind.
//   - Tenant config schema: every JSON object key used by the committed
//     examples/tenants.json must be mentioned (as `key`) in
//     docs/SERVICE.md, so a new tenant-file field cannot land without
//     docs.
//   - Chaos points: every fault-injection point declared in
//     internal/chaos/chaos.go must be mentioned (as `point`) in the
//     service docs, so a new -chaos spec point cannot land undocumented.
//
// Usage: go run ./scripts/doccheck
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const (
	schemaDoc  = "docs/SCENARIOS.md"
	daemonMain = "cmd/dbpserved/main.go"
)

// serviceDocs is the combined documentation surface for the daemon: a flag
// or metric counts as documented if any of these mentions it.
var serviceDocs = []string{"docs/SERVICE.md", "docs/FLEET.md", "README.md"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "doccheck: FAIL:", err)
		os.Exit(1)
	}
}

func run() error {
	if err := checkScenarioSchema(); err != nil {
		return err
	}
	if err := checkServiceSurface(); err != nil {
		return err
	}
	if err := checkTenantConfig(); err != nil {
		return err
	}
	return checkChaosPoints()
}

func checkScenarioSchema() error {
	files, err := filepath.Glob("scenarios/*.json")
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no committed scenario files under scenarios/ (run from the repo root)")
	}
	doc, err := os.ReadFile(schemaDoc)
	if err != nil {
		return err
	}
	text := string(doc)

	missing := map[string][]string{} // field -> files using it
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		for _, key := range collectKeys(v, nil) {
			// Array-valued fields are documented as `key[]`.
			if !strings.Contains(text, "`"+key+"`") && !strings.Contains(text, "`"+key+"[]`") {
				missing[key] = append(missing[key], f)
			}
		}
	}
	if len(missing) > 0 {
		keys := make([]string, 0, len(missing))
		for k := range missing {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(os.Stderr, "doccheck: field %q (used by %s) is not documented in %s\n",
				k, strings.Join(missing[k], ", "), schemaDoc)
		}
		return fmt.Errorf("%d scenario field(s) missing from %s", len(missing), schemaDoc)
	}
	fmt.Printf("doccheck: ok (%d scenario files, every field documented in %s)\n", len(files), schemaDoc)
	return nil
}

var (
	flagDeclRe   = regexp.MustCompile(`(?:fs|flag)\.(?:String|Bool|Int|Int64|Uint64|Float64|Duration)\("([a-z][a-z0-9-]*)"`)
	docFlagRe    = regexp.MustCompile("`-([a-z][a-z0-9-]*)[` ]")
	metricNameRe = regexp.MustCompile(`"(dbp(?:served|fleet)_[a-z_]+)"`)
	docMetricRe  = regexp.MustCompile(`dbp(?:served|fleet)_[a-z][a-z_]*`)
	routeRe      = regexp.MustCompile(`\.Handle(?:Func)?\("([A-Z]+ /[^"]*)"`)
	docRouteRe   = regexp.MustCompile("`([A-Z]+ /v1/[^`?]*)(?:\\?[^`]*)?`")
)

func checkServiceSurface() error {
	text, err := readServiceDocs()
	if err != nil {
		return err
	}
	where := strings.Join(serviceDocs, " / ")

	src, err := os.ReadFile(daemonMain)
	if err != nil {
		return err
	}
	var missing []string
	flags := map[string]bool{}
	for _, m := range flagDeclRe.FindAllStringSubmatch(string(src), -1) {
		flags[m[1]] = true
	}
	if len(flags) == 0 {
		return fmt.Errorf("no flag declarations found in %s (pattern drift?)", daemonMain)
	}
	for name := range flags {
		if !strings.Contains(text, "-"+name) {
			missing = append(missing, "flag -"+name)
		}
	}

	metrics, routes := map[string]bool{}, map[string]bool{}
	for _, dir := range []string{"internal/serve", "internal/fleet", "internal/tenant"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return err
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			data, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			for _, m := range metricNameRe.FindAllStringSubmatch(string(data), -1) {
				metrics[m[1]] = true
			}
			for _, m := range routeRe.FindAllStringSubmatch(string(data), -1) {
				routes[m[1]] = true
			}
		}
	}
	if len(metrics) == 0 || len(routes) == 0 {
		return fmt.Errorf("no metric name literals or routes found under internal/serve + internal/fleet (pattern drift?)")
	}
	for name := range metrics {
		if !strings.Contains(text, name) {
			missing = append(missing, "metric "+name)
		}
	}
	for route := range routes {
		if !strings.Contains(text, route) {
			missing = append(missing, "route "+route)
		}
	}
	var stale []string
	for _, name := range docMetricRe.FindAllString(text, -1) {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suffix)
		}
		if !metrics[name] && !contains(stale, name) {
			stale = append(stale, name)
		}
	}

	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil {
		return err
	}
	declared := map[string]bool{}
	for _, f := range mains {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		for _, m := range flagDeclRe.FindAllStringSubmatch(string(data), -1) {
			declared[m[1]] = true
		}
	}
	for _, m := range docFlagRe.FindAllStringSubmatch(text, -1) {
		if name := "-" + m[1]; !declared[m[1]] && !contains(stale, name) {
			stale = append(stale, name)
		}
	}
	for _, m := range docRouteRe.FindAllStringSubmatch(text, -1) {
		if !routes[m[1]] && !contains(stale, m[1]) {
			stale = append(stale, m[1])
		}
	}

	if len(missing) > 0 {
		sort.Strings(missing)
		for _, m := range missing {
			fmt.Fprintf(os.Stderr, "doccheck: %s is not documented in %s\n", m, where)
		}
		return fmt.Errorf("%d service flag(s)/metric(s)/route(s) missing from %s", len(missing), where)
	}
	if len(stale) > 0 {
		sort.Strings(stale)
		for _, m := range stale {
			switch {
			case strings.HasPrefix(m, "-"):
				fmt.Fprintf(os.Stderr, "doccheck: %s mentions flag %s, which no cmd/*/main.go declares\n", where, m)
			case strings.Contains(m, " /"):
				fmt.Fprintf(os.Stderr, "doccheck: %s mentions route %s, which no internal/serve + internal/fleet mux registers\n", where, m)
			default:
				fmt.Fprintf(os.Stderr, "doccheck: %s mentions metric %s, which no longer exists under internal/serve + internal/fleet + internal/tenant\n", where, m)
			}
		}
		return fmt.Errorf("%d documented metric(s)/flag(s)/route(s) not in the code", len(stale))
	}
	fmt.Printf("doccheck: ok (%d flags, %d metrics, %d routes, all documented in %s)\n",
		len(flags), len(metrics), len(routes), where)
	return nil
}

// readServiceDocs concatenates the service docs.
func readServiceDocs() (string, error) {
	var docs strings.Builder
	for _, f := range serviceDocs {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		docs.Write(data)
		docs.WriteByte('\n')
	}
	return docs.String(), nil
}

// checkTenantConfig keeps the tenants-file docs honest: every key the
// committed example config uses must be documented in docs/SERVICE.md.
func checkTenantConfig() error {
	const example = "examples/tenants.json"
	const doc = "docs/SERVICE.md"
	data, err := os.ReadFile(example)
	if err != nil {
		return err
	}
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return fmt.Errorf("%s: %w", example, err)
	}
	docData, err := os.ReadFile(doc)
	if err != nil {
		return err
	}
	text := string(docData)
	var missing []string
	keys := collectKeys(v, nil)
	for _, key := range keys {
		if !strings.Contains(text, "`"+key+"`") {
			missing = append(missing, key)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		for _, k := range missing {
			fmt.Fprintf(os.Stderr, "doccheck: tenant config field %q (used by %s) is not documented in %s\n", k, example, doc)
		}
		return fmt.Errorf("%d tenant config field(s) missing from %s", len(missing), doc)
	}
	fmt.Printf("doccheck: ok (%s: every field documented in %s)\n", example, doc)
	return nil
}

var chaosPointRe = regexp.MustCompile(`(?m)^\t\w+\s+Point = "([a-z-]+)"`)

// checkChaosPoints keeps the fault-injection docs honest: every Point
// constant declared in internal/chaos/chaos.go must be mentioned (in
// backticks) somewhere in the service docs.
func checkChaosPoints() error {
	const src = "internal/chaos/chaos.go"
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	points := map[string]bool{}
	for _, m := range chaosPointRe.FindAllStringSubmatch(string(data), -1) {
		points[m[1]] = true
	}
	if len(points) == 0 {
		return fmt.Errorf("no chaos Point declarations found in %s (pattern drift?)", src)
	}
	text, err := readServiceDocs()
	if err != nil {
		return err
	}
	where := strings.Join(serviceDocs, " / ")
	var missing []string
	for name := range points {
		if !strings.Contains(text, "`"+name+"`") {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		for _, m := range missing {
			fmt.Fprintf(os.Stderr, "doccheck: chaos point %q is not documented in %s\n", m, where)
		}
		return fmt.Errorf("%d chaos point(s) missing from %s", len(missing), where)
	}
	fmt.Printf("doccheck: ok (%d chaos points, all documented in %s)\n", len(points), where)
	return nil
}

// collectKeys walks a decoded JSON value and returns every object key,
// deduplicated.
func collectKeys(v any, acc []string) []string {
	switch t := v.(type) {
	case map[string]any:
		for k, child := range t {
			if !contains(acc, k) {
				acc = append(acc, k)
			}
			acc = collectKeys(child, acc)
		}
	case []any:
		for _, child := range t {
			acc = collectKeys(child, acc)
		}
	}
	return acc
}

func contains(s []string, x string) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}
