package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSample is one series line of a Prometheus text exposition page.
type promSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// parseProm reads the sample lines of a text exposition page (comments and
// blank lines are skipped). It accepts the subset the service writes:
// name, optional {k="v",...} with Go-quoted values, and one float value.
func parseProm(page string) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(strings.NewReader(page))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s := promSample{Labels: map[string]string{}}
		rest := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("prom: unbalanced braces in %q", line)
			}
			s.Name = line[:i]
			if err := parseLabels(line[i+1:j], s.Labels); err != nil {
				return nil, fmt.Errorf("prom: %q: %w", line, err)
			}
			rest = strings.TrimSpace(line[j+1:])
		} else {
			f := strings.Fields(line)
			if len(f) < 2 {
				return nil, fmt.Errorf("prom: no value in %q", line)
			}
			s.Name, rest = f[0], f[1]
		}
		v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: bad value in %q: %w", line, err)
		}
		s.Value = v
		out = append(out, s)
	}
	return out, sc.Err()
}

// parseLabels fills dst from the inside of a label set: k="v",k2="v2".
func parseLabels(s string, dst map[string]string) error {
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return fmt.Errorf("label without '='")
		}
		key := strings.TrimSpace(s[:eq])
		rest := s[eq+1:]
		val, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return fmt.Errorf("label %s: %w", key, err)
		}
		unq, err := strconv.Unquote(val)
		if err != nil {
			return fmt.Errorf("label %s: %w", key, err)
		}
		dst[key] = unq
		s = strings.TrimPrefix(strings.TrimSpace(rest[len(val):]), ",")
	}
	return nil
}

// matches reports whether every label in want is present with that value.
func (s promSample) matches(name string, want map[string]string) bool {
	if s.Name != name {
		return false
	}
	for k, v := range want {
		if s.Labels[k] != v {
			return false
		}
	}
	return true
}

// promSum adds up every series of the named metric carrying the wanted
// labels (nil matches all series) — e.g. a counter summed over tenants.
func promSum(samples []promSample, name string, want map[string]string) float64 {
	var t float64
	for _, s := range samples {
		if s.matches(name, want) {
			t += s.Value
		}
	}
	return t
}

// histQuantile estimates the q-quantile of a cumulative histogram family
// (name_bucket series with an "le" label) the way Prometheus does:
// linear interpolation inside the bucket holding the rank, the lower edge
// of the first bucket taken as 0. A rank landing in the +Inf bucket
// returns the highest finite bound. ok is false when the histogram is
// empty.
func histQuantile(samples []promSample, name string, want map[string]string, q float64) (v float64, ok bool) {
	// Series that match want (several lanes, say) are summed bucket by bucket.
	cum := map[float64]float64{}
	for _, s := range samples {
		if !s.matches(name+"_bucket", want) {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			continue
		}
		cum[le] += s.Value
	}
	les := make([]float64, 0, len(cum))
	for le := range cum {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 || cum[les[len(les)-1]] == 0 {
		return 0, false
	}
	rank := q * cum[les[len(les)-1]]
	prevLe, prevCum := 0.0, 0.0
	for _, le := range les {
		c := cum[le]
		if c >= rank {
			if math.IsInf(le, 1) {
				return prevLe, true
			}
			if c == prevCum {
				return le, true
			}
			return prevLe + (le-prevLe)*(rank-prevCum)/(c-prevCum), true
		}
		prevLe, prevCum = le, c
	}
	return prevLe, true
}
