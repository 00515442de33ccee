// Package chaos is dbpserved's fault-injection layer: a small, deterministic
// injector that the serving stack consults at named fault points (before a
// run executes, around journal and result-store I/O). Faults are configured
// from a compact spec string (the daemon's -chaos flag) and fire on a
// strict every-Nth-visit schedule, so chaos tests are reproducible — the
// same request sequence always hits the same faults.
//
// A nil *Injector is a valid, always-off injector: every method is a no-op
// on a nil receiver, so production code paths carry no conditionals beyond
// the calls themselves.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Point names one place in the serving stack where a fault can fire.
type Point string

const (
	// RunDelay sleeps (context-aware) before every simulation executes.
	RunDelay Point = "delay"
	// RunPanic panics on the worker goroutine before the simulation runs.
	RunPanic Point = "panic"
	// JournalAppend fails journal record appends.
	JournalAppend Point = "journal"
	// ResultWrite fails persisting a ledger to the on-disk result store.
	ResultWrite Point = "result-write"
	// ResultRead fails loading a ledger back from the result store.
	ResultRead Point = "result-read"
	// Checkpoint fails persisting or loading a checkpoint blob in the
	// on-disk checkpoint store.
	Checkpoint Point = "checkpoint"

	// The fleet network points fire inside the Transport wrapper on the HTTP
	// client making the named call, surfacing as transport errors (a dropped
	// connection, not an HTTP status). Each takes either N (drop every Nth
	// request) or a duration (delay every request, context-aware).

	// Forward faults a worker's owner-forwarded run dispatch.
	Forward Point = "forward"
	// Heartbeat faults a worker's join/heartbeat POSTs to the coordinator.
	Heartbeat Point = "heartbeat"
	// Mirror faults a worker's checkpoint mirror POSTs to the coordinator.
	Mirror Point = "mirror"
	// SweepStream tears the coordinator's NDJSON sweep stream mid-flight
	// (every Nth line write aborts the response), so clients see a dropped
	// stream with no summary line.
	SweepStream Point = "sweep-stream"
	// Partition simulates a network partition: every request whose target
	// host:port contains the configured substring is dropped at the
	// Transport, regardless of which fleet point the client serves.
	Partition Point = "partition"
)

// networkPoints are the points the Transport wrapper consults; they accept
// both drop-every-N and delay-duration values in Parse.
var networkPoints = map[Point]bool{
	Forward: true, Heartbeat: true, Mirror: true, SweepStream: true,
}

// Error is the error an injected fault surfaces as. Callers distinguish
// injected faults from real ones with errors.As / IsInjected.
type Error struct {
	Point Point
}

func (e *Error) Error() string {
	return fmt.Sprintf("chaos: injected fault at %s", e.Point)
}

// IsInjected reports whether err is (or wraps) an injected chaos fault.
func IsInjected(err error) bool {
	var ce *Error
	return errors.As(err, &ce)
}

// fault is one configured fault: it fires on every Nth visit to its point
// (every=1 fires always). Visits are counted atomically so concurrent
// workers share one schedule.
type fault struct {
	every  uint64
	delay  time.Duration
	match  string // Partition only: drop requests whose host contains this
	visits atomic.Uint64
}

func (f *fault) fires() bool {
	return f.visits.Add(1)%f.every == 0
}

// Injector holds the configured faults. The zero value (and nil) inject
// nothing.
type Injector struct {
	faults map[Point]*fault
}

// Parse builds an injector from a comma-separated spec. Each element is
// point=value: "delay" takes a duration; the fleet network points
// (forward, heartbeat, mirror, sweep-stream) take either N ≥ 1
// (drop every Nth request) or a duration (delay every request);
// "partition" takes a host substring (drop every request to a matching
// peer); every other point takes N ≥ 1 meaning "fire on every Nth visit"
// (1 = every visit).
//
//	delay=250ms,panic=3,journal=1,result-read=2,result-write=2
//	heartbeat=1,mirror=2,partition=127.0.0.1:9000
func Parse(spec string) (*Injector, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("chaos: empty spec")
	}
	inj := &Injector{faults: make(map[Point]*fault)}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return nil, fmt.Errorf("chaos: bad spec element %q (want point=value)", part)
		}
		p := Point(kv[0])
		if _, dup := inj.faults[p]; dup {
			return nil, fmt.Errorf("chaos: duplicate point %q", p)
		}
		switch {
		case p == RunDelay:
			d, err := time.ParseDuration(kv[1])
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("chaos: bad delay %q (want a positive duration)", kv[1])
			}
			inj.faults[p] = &fault{every: 1, delay: d}
		case p == Partition:
			inj.faults[p] = &fault{every: 1, match: kv[1]}
		case networkPoints[p]:
			// Drop-every-N or delay-every-request, disambiguated by value
			// shape: a bare integer is a count, anything else must parse as
			// a duration.
			if n, err := strconv.ParseUint(kv[1], 10, 32); err == nil {
				if n < 1 {
					return nil, fmt.Errorf("chaos: bad count %q for %s (want N >= 1)", kv[1], p)
				}
				inj.faults[p] = &fault{every: n}
				break
			}
			d, err := time.ParseDuration(kv[1])
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("chaos: bad value %q for %s (want N >= 1 or a positive duration)", kv[1], p)
			}
			inj.faults[p] = &fault{every: 1, delay: d}
		case p == RunPanic || p == JournalAppend || p == ResultWrite || p == ResultRead || p == Checkpoint:
			n, err := strconv.ParseUint(kv[1], 10, 32)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("chaos: bad count %q for %s (want N >= 1)", kv[1], p)
			}
			inj.faults[p] = &fault{every: n}
		default:
			return nil, fmt.Errorf("chaos: unknown fault point %q", kv[0])
		}
	}
	return inj, nil
}

// Err returns an injected error when the fault at p is configured and fires
// on this visit, nil otherwise.
func (i *Injector) Err(p Point) error {
	if i == nil {
		return nil
	}
	f := i.faults[p]
	if f == nil || !f.fires() {
		return nil
	}
	return &Error{Point: p}
}

// Sleep blocks for the configured delay at p (typically RunDelay),
// returning early with the context's cancellation cause if ctx ends first.
// Without a configured delay it returns nil immediately.
func (i *Injector) Sleep(ctx context.Context, p Point) error {
	if i == nil {
		return nil
	}
	f := i.faults[p]
	if f == nil || f.delay <= 0 || !f.fires() {
		return nil
	}
	t := time.NewTimer(f.delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// MaybePanic panics with a *Error when the fault at p fires. The serving
// layer calls this on worker goroutines to exercise panic isolation.
func (i *Injector) MaybePanic(p Point) {
	if i == nil {
		return
	}
	f := i.faults[p]
	if f == nil || !f.fires() {
		return
	}
	panic(&Error{Point: p})
}

// String renders the configured faults in spec order (sorted by point), for
// logs.
func (i *Injector) String() string {
	if i == nil || len(i.faults) == 0 {
		return "off"
	}
	parts := make([]string, 0, len(i.faults))
	for p, f := range i.faults {
		switch {
		case f.match != "":
			parts = append(parts, fmt.Sprintf("%s=%s", p, f.match))
		case f.delay > 0:
			parts = append(parts, fmt.Sprintf("%s=%s", p, f.delay))
		default:
			parts = append(parts, fmt.Sprintf("%s=%d", p, f.every))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
