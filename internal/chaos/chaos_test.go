package chaos

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"
)

func TestParseRejects(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"delay",
		"delay=",
		"=3",
		"delay=banana",
		"delay=-5ms",
		"delay=0s",
		"panic=0",
		"panic=x",
		"warp-core=1",
		"peer-probe=1",
		"panic=1,panic=2",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestEveryNthSchedule(t *testing.T) {
	inj, err := Parse("journal=3")
	if err != nil {
		t.Fatal(err)
	}
	var fired []int
	for visit := 1; visit <= 9; visit++ {
		if inj.Err(JournalAppend) != nil {
			fired = append(fired, visit)
		}
	}
	if fmt.Sprint(fired) != "[3 6 9]" {
		t.Errorf("journal=3 fired on visits %v, want [3 6 9]", fired)
	}
	// An unconfigured point never fires.
	if err := inj.Err(ResultRead); err != nil {
		t.Errorf("unconfigured point fired: %v", err)
	}
}

func TestInjectedErrorIsRecognisable(t *testing.T) {
	inj, err := Parse("result-write=1")
	if err != nil {
		t.Fatal(err)
	}
	e := inj.Err(ResultWrite)
	if e == nil {
		t.Fatal("result-write=1 did not fire")
	}
	if !IsInjected(e) || !IsInjected(fmt.Errorf("wrap: %w", e)) {
		t.Error("IsInjected failed to recognise the injected error")
	}
	if IsInjected(errors.New("real failure")) {
		t.Error("IsInjected claimed a real error")
	}
}

func TestMaybePanic(t *testing.T) {
	inj, err := Parse("panic=2")
	if err != nil {
		t.Fatal(err)
	}
	inj.MaybePanic(RunPanic) // visit 1: no panic
	recovered := func() (p any) {
		defer func() { p = recover() }()
		inj.MaybePanic(RunPanic) // visit 2: panics
		return nil
	}()
	if recovered == nil {
		t.Fatal("panic=2 did not panic on the second visit")
	}
	if ce, ok := recovered.(*Error); !ok || ce.Point != RunPanic {
		t.Errorf("panic value = %#v, want *chaos.Error{panic}", recovered)
	}
}

func TestSleepHonoursContext(t *testing.T) {
	inj, err := Parse("delay=10s")
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("client went away")
	ctx, cancel := context.WithCancelCause(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel(cause)
	}()
	start := time.Now()
	if err := inj.Sleep(ctx, RunDelay); !errors.Is(err, cause) {
		t.Errorf("Sleep returned %v, want the cancellation cause", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("Sleep ignored cancellation")
	}
}

func TestNilInjectorIsOff(t *testing.T) {
	var inj *Injector
	if inj.Err(JournalAppend) != nil {
		t.Error("nil injector fired")
	}
	if err := inj.Sleep(context.Background(), RunDelay); err != nil {
		t.Error("nil injector slept")
	}
	inj.MaybePanic(RunPanic) // must not panic
	if inj.String() != "off" {
		t.Errorf("nil String = %q", inj.String())
	}
}

func TestParseNetworkPoints(t *testing.T) {
	inj, err := Parse("heartbeat=3,mirror=250ms,partition=127.0.0.1:9000,forward=1")
	if err != nil {
		t.Fatal(err)
	}
	if got := inj.String(); got != "forward=1,heartbeat=3,mirror=250ms,partition=127.0.0.1:9000" {
		t.Errorf("String = %q", got)
	}
	if !inj.Partitioned("127.0.0.1:9000") || inj.Partitioned("127.0.0.1:9001") {
		t.Error("Partitioned misjudged the configured host")
	}
	for _, bad := range []string{"heartbeat=0", "forward=banana", "sweep-stream=-1s"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// rtFunc adapts a function to http.RoundTripper for the transport tests.
type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func okRT(calls *int) http.RoundTripper {
	return rtFunc(func(*http.Request) (*http.Response, error) {
		*calls++
		return &http.Response{StatusCode: http.StatusOK, Body: http.NoBody}, nil
	})
}

func TestTransportDropsEveryNth(t *testing.T) {
	inj, err := Parse("heartbeat=2")
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	rt := Transport(inj, Heartbeat, okRT(&calls))
	req, _ := http.NewRequest(http.MethodPost, "http://127.0.0.1:9000/v1/fleet/join", nil)
	var dropped []int
	for visit := 1; visit <= 4; visit++ {
		if _, err := rt.RoundTrip(req); err != nil {
			if !IsInjected(err) {
				t.Fatalf("visit %d: non-injected error %v", visit, err)
			}
			dropped = append(dropped, visit)
		}
	}
	if fmt.Sprint(dropped) != "[2 4]" {
		t.Errorf("heartbeat=2 dropped visits %v, want [2 4]", dropped)
	}
	if calls != 2 {
		t.Errorf("base transport saw %d calls, want 2", calls)
	}
}

func TestTransportPartitionByPeer(t *testing.T) {
	inj, err := Parse("partition=:9000")
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	rt := Transport(inj, Forward, okRT(&calls))
	blocked, _ := http.NewRequest(http.MethodPost, "http://127.0.0.1:9000/v1/runs", nil)
	if _, err := rt.RoundTrip(blocked); !IsInjected(err) {
		t.Errorf("partitioned host answered: %v", err)
	}
	open, _ := http.NewRequest(http.MethodPost, "http://127.0.0.1:9001/v1/runs", nil)
	if _, err := rt.RoundTrip(open); err != nil {
		t.Errorf("unpartitioned host dropped: %v", err)
	}
	if calls != 1 {
		t.Errorf("base transport saw %d calls, want 1", calls)
	}
}

func TestTransportPassthroughWhenUnconfigured(t *testing.T) {
	base := &http.Transport{}
	if got := Transport(nil, Forward, base); got != http.RoundTripper(base) {
		t.Error("nil injector did not return the base transport unchanged")
	}
	inj, err := Parse("journal=1") // no network points configured
	if err != nil {
		t.Fatal(err)
	}
	if got := Transport(inj, Forward, base); got != http.RoundTripper(base) {
		t.Error("injector without network faults did not return the base transport")
	}
}

func TestString(t *testing.T) {
	inj, err := Parse("panic=3,delay=250ms")
	if err != nil {
		t.Fatal(err)
	}
	if got := inj.String(); got != "delay=250ms,panic=3" {
		t.Errorf("String = %q", got)
	}
}
