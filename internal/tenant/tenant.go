// Package tenant is the multi-tenancy substrate for the simulation service:
// API-key authentication from a reloadable config file, token-bucket quotas
// on admitted cells and simulated cycles, a weighted-fair queue (wfq.go)
// scheduling tenants the way the paper's memory scheduler regulates threads,
// and the admission price (cost.go): a run's simcycles, fixed by its
// instruction budget.
//
// The package deliberately mirrors the paper's own vocabulary: tenants are
// the service's "threads", the job queue is its "memory controller", and
// per-tenant slowdown (reported by internal/serve via internal/stats) is
// the same max-slowdown fairness metric the simulator computes for cores.
package tenant

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// Lanes. Interactive work shares the one weighted-fair queue with batch
// work but at a weight multiplier (InteractiveBoost), so it overtakes
// queued batch cells without ever starving them — strict priority would
// break the starvation-freedom property the queue tests assert.
const (
	LaneBatch       = "batch"
	LaneInteractive = "interactive"
)

// InteractiveBoost is the effective-weight multiplier the interactive lane
// enjoys over batch in the weighted-fair queue.
const InteractiveBoost = 4.0

// DefaultTenantName is the tenant every request maps to when no registry is
// configured, and the tenant legacy (pre-tenancy) journal records replay
// under.
const DefaultTenantName = "default"

// ErrUnknownKey reports an API key that matches no configured tenant.
var ErrUnknownKey = errors.New("tenant: unknown API key")

// ErrAnonymous reports a keyless request to a registry with no keyless
// ("key": "") tenant entry.
var ErrAnonymous = errors.New("tenant: anonymous access not configured (no keyless tenant entry)")

// Spec is one tenant entry in the tenants config file. Zero-valued rate
// fields mean "unlimited" for that bucket; a zero weight defaults to 1; an
// empty lane defaults to batch. The key may be empty on at most one entry —
// that entry then serves keyless (anonymous) requests.
type Spec struct {
	Name   string  `json:"name"`
	Key    string  `json:"key,omitempty"`
	Weight float64 `json:"weight,omitempty"`
	// Lane is the tenant's default and maximum lane: "batch" tenants may not
	// request the interactive lane.
	Lane string `json:"lane,omitempty"`
	// CellsPerSec/CellsBurst regulate admitted runs (one token per enqueued
	// simulation); SimcyclesPerSec/SimcyclesBurst regulate simulation
	// cycles (each run's EstimateRun price is debited at admission).
	CellsPerSec     float64 `json:"cells_per_sec,omitempty"`
	CellsBurst      float64 `json:"cells_burst,omitempty"`
	SimcyclesPerSec float64 `json:"simcycles_per_sec,omitempty"`
	SimcyclesBurst  float64 `json:"simcycles_burst,omitempty"`
}

// File is the tenants config file: schema "tenants/v1".
type File struct {
	SchemaVersion int    `json:"schema_version"`
	Tenants       []Spec `json:"tenants"`
}

func (s Spec) normalized() (Spec, error) {
	if s.Name == "" {
		return s, errors.New("tenant: entry with empty name")
	}
	if s.Weight < 0 {
		return s, fmt.Errorf("tenant %q: negative weight", s.Name)
	}
	if s.Weight == 0 {
		s.Weight = 1
	}
	switch s.Lane {
	case "":
		s.Lane = LaneBatch
	case LaneBatch, LaneInteractive:
	default:
		return s, fmt.Errorf("tenant %q: unknown lane %q (want %q or %q)", s.Name, s.Lane, LaneBatch, LaneInteractive)
	}
	if s.CellsPerSec < 0 || s.CellsBurst < 0 || s.SimcyclesPerSec < 0 || s.SimcyclesBurst < 0 {
		return s, fmt.Errorf("tenant %q: negative rate or burst", s.Name)
	}
	// A rate without a burst gets one second of burst; a burst without a
	// rate is a non-refilling allowance (rate 0 never refills).
	if s.CellsPerSec > 0 && s.CellsBurst == 0 {
		s.CellsBurst = s.CellsPerSec
	}
	if s.SimcyclesPerSec > 0 && s.SimcyclesBurst == 0 {
		s.SimcyclesBurst = s.SimcyclesPerSec
	}
	return s, nil
}

// limited reports whether the spec carries any quota at all.
func (s Spec) limited() bool {
	return s.CellsPerSec > 0 || s.CellsBurst > 0 || s.SimcyclesPerSec > 0 || s.SimcyclesBurst > 0
}

// Tenant is one configured tenant plus its live quota state. Buckets
// survive config reloads (limits update in place), so editing the tenants
// file never resets anyone's spend.
type Tenant struct {
	mu     sync.Mutex
	spec   Spec
	cells  *Bucket // nil = unlimited
	cycles *Bucket // nil = unlimited
}

func newTenant(s Spec) *Tenant {
	t := &Tenant{spec: s}
	if s.CellsPerSec > 0 || s.CellsBurst > 0 {
		t.cells = NewBucket(s.CellsPerSec, s.CellsBurst)
	}
	if s.SimcyclesPerSec > 0 || s.SimcyclesBurst > 0 {
		t.cycles = NewBucket(s.SimcyclesPerSec, s.SimcyclesBurst)
	}
	return t
}

// Name returns the tenant's stable identity (journal records, metrics
// labels, queue flows all key on it).
func (t *Tenant) Name() string { return t.spec.Name }

// Weight returns the tenant's fair-share weight.
func (t *Tenant) Weight() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spec.Weight
}

// Lane returns the tenant's default (and maximum) lane.
func (t *Tenant) Lane() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spec.Lane
}

// Admit attempts to charge one admitted cell plus simcycles simulation
// cycles against the tenant's buckets at time now. On refusal it
// returns the refill-based wait until the charge could succeed and which
// bucket refused ("cells" or "simcycles") — the admission controller turns
// that into quota_exceeded + Retry-After.
func (t *Tenant) Admit(now time.Time, simcycles float64) (ok bool, retryAfter time.Duration, limit string) {
	t.mu.Lock()
	cells, cycles := t.cells, t.cycles
	t.mu.Unlock()
	if ok, wait := cells.TakeAt(now, 1); !ok {
		return false, wait, "cells"
	}
	if ok, wait := cycles.TakeAt(now, simcycles); !ok {
		// Refund the cell token the first bucket already took: a refused
		// request consumed nothing.
		cells.RefundAt(now, 1)
		return false, wait, "simcycles"
	}
	return true, 0, ""
}

// Refund returns an admission charge (one cell + simcycles) — the path for
// work that was admitted but never enqueued, e.g. a queue-full rejection
// right after a successful Admit.
func (t *Tenant) Refund(now time.Time, simcycles float64) {
	t.mu.Lock()
	cb, yb := t.cells, t.cycles
	t.mu.Unlock()
	cb.RefundAt(now, 1)
	yb.RefundAt(now, simcycles)
}

// Debit charges the buckets unconditionally (tokens may go negative) with
// refill credited up to at. Journal replay uses it to reconstruct quota
// state from admitted-run records after a restart.
func (t *Tenant) Debit(at time.Time, cells, simcycles float64) {
	t.mu.Lock()
	cb, yb := t.cells, t.cycles
	t.mu.Unlock()
	cb.DebitAt(at, cells)
	yb.DebitAt(at, simcycles)
}

// update applies a reloaded spec, preserving bucket fill levels.
func (t *Tenant) update(s Spec) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spec = s
	setOrDrop := func(b **Bucket, rate, burst float64) {
		if rate == 0 && burst == 0 {
			*b = nil
			return
		}
		if *b == nil {
			*b = NewBucket(rate, burst)
			return
		}
		(*b).SetLimits(rate, burst)
	}
	setOrDrop(&t.cells, s.CellsPerSec, s.CellsBurst)
	setOrDrop(&t.cycles, s.SimcyclesPerSec, s.SimcyclesBurst)
}

// defaultTenant is the built-in unlimited tenant used when no registry is
// configured and as the fallback identity for legacy journal records. It is
// stateless (no buckets), so a package-level singleton is safe.
var defaultTenant = newTenant(Spec{Name: DefaultTenantName, Weight: 1, Lane: LaneBatch})

// Default returns the built-in unlimited default tenant.
func Default() *Tenant { return defaultTenant }

// Registry resolves API keys to tenants, reloading its config file lazily:
// each Authenticate call (throttled to one stat per second) compares the
// file's mtime+size and re-parses on change. A file that stops parsing
// keeps the last good config (counted in ReloadErrors) — a typo in the
// tenants file must never lock every tenant out.
//
// All methods are safe on a nil *Registry: authentication then accepts any
// key (and no key) as the built-in default tenant, which is exactly the
// pre-tenancy behavior of a daemon started without -tenants.
type Registry struct {
	path string

	mu           sync.Mutex
	byKey        map[string]*Tenant
	byName       map[string]*Tenant
	anon         *Tenant // the keyless entry, when one is configured
	lastCheck    time.Time
	modTime      time.Time
	size         int64
	reloads      uint64
	reloadErrors uint64
}

// reloadCheckEvery throttles config-file stats on the hot auth path.
const reloadCheckEvery = time.Second

// NewRegistry loads the tenants file at path. Unlike later reloads, the
// initial load is strict: a daemon must not start with an unparseable
// tenant config.
func NewRegistry(path string) (*Registry, error) {
	r := &Registry{path: path}
	if err := r.Reload(); err != nil {
		return nil, err
	}
	return r, nil
}

// Reload re-parses the config file immediately (no throttle). On error the
// previous config stays in effect (except on the very first load, where
// there is none and NewRegistry fails).
func (r *Registry) Reload() error {
	if r == nil {
		return nil
	}
	data, err := os.ReadFile(r.path)
	if err != nil {
		return r.noteReloadError(fmt.Errorf("tenant: read config: %w", err))
	}
	fi, _ := os.Stat(r.path)
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return r.noteReloadError(fmt.Errorf("tenant: parse %s: %w", r.path, err))
	}
	if f.SchemaVersion != 1 {
		return r.noteReloadError(fmt.Errorf("tenant: %s: unsupported schema_version %d (want 1)", r.path, f.SchemaVersion))
	}
	if len(f.Tenants) == 0 {
		return r.noteReloadError(fmt.Errorf("tenant: %s: no tenants configured", r.path))
	}
	specs := make([]Spec, 0, len(f.Tenants))
	names := map[string]bool{}
	keys := map[string]bool{}
	for _, s := range f.Tenants {
		ns, err := s.normalized()
		if err != nil {
			return r.noteReloadError(err)
		}
		if names[ns.Name] {
			return r.noteReloadError(fmt.Errorf("tenant: duplicate tenant name %q", ns.Name))
		}
		names[ns.Name] = true
		if keys[ns.Key] {
			what := fmt.Sprintf("duplicate API key shared by tenant %q", ns.Name)
			if ns.Key == "" {
				what = "more than one keyless (anonymous) tenant entry"
			}
			return r.noteReloadError(fmt.Errorf("tenant: %s", what))
		}
		keys[ns.Key] = true
		specs = append(specs, ns)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName == nil {
		r.byName = map[string]*Tenant{}
	}
	byKey := make(map[string]*Tenant, len(specs))
	byName := make(map[string]*Tenant, len(specs))
	var anon *Tenant
	for _, s := range specs {
		t := r.byName[s.Name]
		if t == nil {
			t = newTenant(s)
		} else {
			t.update(s)
		}
		byName[s.Name] = t
		if s.Key == "" {
			anon = t
		} else {
			byKey[s.Key] = t
		}
	}
	r.byKey, r.byName, r.anon = byKey, byName, anon
	r.reloads++
	if fi != nil {
		r.modTime, r.size = fi.ModTime(), fi.Size()
	}
	return nil
}

func (r *Registry) noteReloadError(err error) error {
	r.mu.Lock()
	r.reloadErrors++
	r.mu.Unlock()
	return err
}

// maybeReload stats the config file (at most once per reloadCheckEvery) and
// reloads when it changed on disk.
func (r *Registry) maybeReload(now time.Time) {
	r.mu.Lock()
	if now.Sub(r.lastCheck) < reloadCheckEvery {
		r.mu.Unlock()
		return
	}
	r.lastCheck = now
	modTime, size := r.modTime, r.size
	r.mu.Unlock()
	fi, err := os.Stat(r.path)
	if err != nil || (fi.ModTime().Equal(modTime) && fi.Size() == size) {
		return
	}
	_ = r.Reload() // keeps the old config on failure; counted in ReloadErrors
}

// Authenticate resolves an API key (empty = anonymous) to its tenant,
// picking up config-file edits on the way. On a nil registry every request
// is the built-in default tenant.
func (r *Registry) Authenticate(key string) (*Tenant, error) {
	if r == nil {
		return defaultTenant, nil
	}
	r.maybeReload(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	if key == "" {
		if r.anon == nil {
			return nil, ErrAnonymous
		}
		return r.anon, nil
	}
	t, ok := r.byKey[key]
	if !ok {
		return nil, ErrUnknownKey
	}
	return t, nil
}

// Lookup resolves a tenant by name — the journal-replay path, where records
// carry names, not keys. Unknown names (a tenant removed from the config,
// or a legacy record with no tenant at all) map to the built-in default
// tenant rather than failing: old journals must always replay.
func (r *Registry) Lookup(name string) *Tenant {
	if r == nil || name == "" {
		return defaultTenant
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.byName[name]; ok {
		return t
	}
	return defaultTenant
}

// Names returns the configured tenant names, for metrics enumeration.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	return names
}

// ReloadStats reports how many config reloads succeeded and failed since
// startup (the initial load counts as the first success).
func (r *Registry) ReloadStats() (reloads, failures uint64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reloads, r.reloadErrors
}

// MaxLane validates a requested lane against the tenant's configured
// maximum: empty picks the tenant's default lane; batch is always allowed;
// interactive needs an interactive tenant.
func (t *Tenant) MaxLane(requested string) (string, error) {
	switch requested {
	case "":
		return t.Lane(), nil
	case LaneBatch:
		return LaneBatch, nil
	case LaneInteractive:
		if t.Lane() != LaneInteractive {
			return "", fmt.Errorf("tenant %q may not use the interactive lane", t.Name())
		}
		return LaneInteractive, nil
	default:
		return "", fmt.Errorf("unknown lane %q (want %q or %q)", requested, LaneBatch, LaneInteractive)
	}
}
