package tenant

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func writeTenants(t *testing.T, dir, body string) string {
	t.Helper()
	path := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const twoTenants = `{
  "schema_version": 1,
  "tenants": [
    {"name": "ui", "key": "k-ui", "weight": 4, "lane": "interactive"},
    {"name": "batch", "key": "k-batch", "cells_per_sec": 2, "cells_burst": 3,
     "simcycles_per_sec": 1000, "simcycles_burst": 5000}
  ]
}`

func TestRegistryAuthenticate(t *testing.T) {
	path := writeTenants(t, t.TempDir(), twoTenants)
	reg, err := NewRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	ui, err := reg.Authenticate("k-ui")
	if err != nil || ui.Name() != "ui" || ui.Lane() != LaneInteractive || ui.Weight() != 4 {
		t.Fatalf("k-ui → (%v, %v); want tenant ui interactive weight 4", ui, err)
	}
	if _, err := reg.Authenticate("nope"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("unknown key: err=%v want ErrUnknownKey", err)
	}
	// No keyless entry in this file: anonymous requests are refused.
	if _, err := reg.Authenticate(""); !errors.Is(err, ErrAnonymous) {
		t.Fatalf("anonymous: err=%v want ErrAnonymous", err)
	}
}

func TestRegistryNilIsOpen(t *testing.T) {
	var reg *Registry
	for _, key := range []string{"", "anything"} {
		ten, err := reg.Authenticate(key)
		if err != nil || ten.Name() != DefaultTenantName {
			t.Fatalf("nil registry, key %q → (%v, %v); want default tenant", key, ten, err)
		}
	}
	if reg.Lookup("ghost").Name() != DefaultTenantName {
		t.Fatal("nil registry Lookup must return the default tenant")
	}
}

func TestRegistryLookupFallsBackToDefault(t *testing.T) {
	path := writeTenants(t, t.TempDir(), twoTenants)
	reg, err := NewRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Lookup("ui").Name() != "ui" {
		t.Fatal("Lookup of a configured tenant must return it")
	}
	// Legacy journal records (no tenant) and removed tenants both land on
	// the default tenant instead of failing replay.
	for _, name := range []string{"", "removed-tenant"} {
		if got := reg.Lookup(name).Name(); got != DefaultTenantName {
			t.Fatalf("Lookup(%q) = %s; want default", name, got)
		}
	}
}

func TestRegistryReloadPreservesBuckets(t *testing.T) {
	dir := t.TempDir()
	path := writeTenants(t, dir, twoTenants)
	reg, err := NewRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	bt, _ := reg.Authenticate("k-batch")
	// Spend the whole cell burst.
	for i := 0; i < 3; i++ {
		if ok, _, _ := bt.Admit(now, 1); !ok {
			t.Fatalf("admit %d refused with burst 3", i)
		}
	}
	if ok, ra, limit := bt.Admit(now, 1); ok || limit != "cells" || ra <= 0 {
		t.Fatalf("4th admit = (%v, %v, %q); want cells refusal with positive Retry-After", ok, ra, limit)
	}
	// Reload with a raised weight: the drained bucket must stay drained.
	writeTenants(t, dir, `{
  "schema_version": 1,
  "tenants": [
    {"name": "ui", "key": "k-ui", "weight": 4, "lane": "interactive"},
    {"name": "batch", "key": "k-batch", "weight": 2, "cells_per_sec": 2, "cells_burst": 3,
     "simcycles_per_sec": 1000, "simcycles_burst": 5000}
  ]
}`)
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	bt2, _ := reg.Authenticate("k-batch")
	if bt2 != bt {
		t.Fatal("reload must keep the same *Tenant (bucket state lives there)")
	}
	if bt2.Weight() != 2 {
		t.Fatalf("weight after reload = %v; want 2", bt2.Weight())
	}
	if ok, _, _ := bt2.Admit(now, 1); ok {
		t.Fatal("reload reset the cell bucket; spend must survive config edits")
	}
}

func TestRegistryReloadKeepsLastGoodConfig(t *testing.T) {
	dir := t.TempDir()
	path := writeTenants(t, dir, twoTenants)
	reg, err := NewRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	writeTenants(t, dir, `{"schema_version": 1, "tenants": [{"name": ""}]}`)
	if err := reg.Reload(); err == nil {
		t.Fatal("reload of an invalid file must error")
	}
	reloads, failures := reg.ReloadStats()
	if reloads != 1 || failures != 1 {
		t.Fatalf("ReloadStats = (%d, %d); want (1, 1)", reloads, failures)
	}
	// Authenticate may retry the (still-bad) file via its lazy reload; the
	// last good config must survive regardless.
	if _, err := reg.Authenticate("k-ui"); err != nil {
		t.Fatalf("last good config lost after a failed reload: %v", err)
	}
}

func TestRegistryRejectsBadConfigs(t *testing.T) {
	dir := t.TempDir()
	for _, bad := range []string{
		`{"schema_version": 2, "tenants": [{"name": "a"}]}`,
		`{"schema_version": 1, "tenants": []}`,
		`{"schema_version": 1, "tenants": [{"name": "a"}, {"name": "a"}]}`,
		`{"schema_version": 1, "tenants": [{"name": "a", "key": "k"}, {"name": "b", "key": "k"}]}`,
		`{"schema_version": 1, "tenants": [{"name": "a"}, {"name": "b"}]}`, // two keyless entries
		`{"schema_version": 1, "tenants": [{"name": "a", "lane": "express"}]}`,
		`{"schema_version": 1, "tenants": [{"name": "a", "weight": -1}]}`,
		`not json`,
	} {
		path := writeTenants(t, dir, bad)
		if _, err := NewRegistry(path); err == nil {
			t.Fatalf("config accepted but should fail: %s", bad)
		}
	}
}

func TestBucketRefillAndRetryAfter(t *testing.T) {
	b := NewBucket(10, 5) // 10 tokens/s, burst 5
	t0 := time.Unix(1000, 0)
	if ok, _ := b.TakeAt(t0, 5); !ok {
		t.Fatal("full bucket refused its burst")
	}
	ok, ra := b.TakeAt(t0, 2)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if want := 200 * time.Millisecond; ra != want {
		t.Fatalf("Retry-After = %v; want %v (2 tokens at 10/s)", ra, want)
	}
	// After 300ms, 3 tokens accrued: the charge of 2 now fits.
	if ok, _ := b.TakeAt(t0.Add(300*time.Millisecond), 2); !ok {
		t.Fatal("refill not credited")
	}
}

func TestBucketNonRefillingNeverRecovers(t *testing.T) {
	b := NewBucket(0, 3) // pure allowance
	t0 := time.Unix(1000, 0)
	if ok, _ := b.TakeAt(t0, 3); !ok {
		t.Fatal("allowance refused")
	}
	ok, ra := b.TakeAt(t0.Add(time.Hour), 1)
	if ok || ra != retryForever {
		t.Fatalf("non-refilling bucket: (%v, %v); want refusal with the forever Retry-After", ok, ra)
	}
}

func TestBucketDebitReplay(t *testing.T) {
	b := NewBucket(1, 100)
	t0 := time.Unix(1000, 0)
	// Replay two historical charges; refill accrues between them.
	b.DebitAt(t0, 80)
	b.DebitAt(t0.Add(10*time.Second), 25) // +10 refill, then -25 → 5 left
	if got := b.Tokens(t0.Add(10 * time.Second)); got != 5 {
		t.Fatalf("tokens after replay = %v; want 5", got)
	}
	if ok, _ := b.TakeAt(t0.Add(10*time.Second), 6); ok {
		t.Fatal("replayed spend not enforced")
	}
}

func TestNilBucketIsUnlimited(t *testing.T) {
	var b *Bucket
	if ok, _ := b.TakeAt(time.Now(), 1e18); !ok {
		t.Fatal("nil bucket must admit everything")
	}
	b.DebitAt(time.Now(), 1e18)
	b.RefundAt(time.Now(), 1)
	b.SetLimits(1, 1)
}

func TestTenantMaxLane(t *testing.T) {
	ui := newTenant(Spec{Name: "ui", Weight: 1, Lane: LaneInteractive})
	bt := newTenant(Spec{Name: "b", Weight: 1, Lane: LaneBatch})
	if lane, err := ui.MaxLane(""); err != nil || lane != LaneInteractive {
		t.Fatalf("ui default lane = (%q, %v)", lane, err)
	}
	if lane, err := ui.MaxLane(LaneBatch); err != nil || lane != LaneBatch {
		t.Fatalf("interactive tenant requesting batch = (%q, %v)", lane, err)
	}
	if _, err := bt.MaxLane(LaneInteractive); err == nil {
		t.Fatal("batch tenant must not get the interactive lane")
	}
	if _, err := bt.MaxLane("express"); err == nil {
		t.Fatal("unknown lane must be rejected")
	}
}

// TestEstimateRun pins the admission price and its wire form: a run's
// simcycles depend on its instruction budget alone, and the estimate a
// quota_exceeded error carries is just that count.
func TestEstimateRun(t *testing.T) {
	est := EstimateRun(600_000)
	if est.SimCycles != 1_200_000 {
		t.Fatalf("EstimateRun(600k) = %+v, want 1.2M simcycles", est)
	}
	if huge := EstimateRun(math.MaxUint64/2 + 1); huge.SimCycles != math.MaxUint64 {
		t.Fatalf("an overflowing budget priced at %d simcycles, want saturation", huge.SimCycles)
	}
	data, err := json.Marshal(est)
	if err != nil || string(data) != `{"simcycles":1200000}` {
		t.Fatalf("estimate encodes as %s (%v)", data, err)
	}
}
