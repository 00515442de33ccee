package drill

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as a fake dbpserved: when the harness re-executes this
// test binary with the daemon flags it always passes (-addr-file), it
// serves /healthz and /metrics instead of running the tests.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-addr-file" {
			os.Exit(fakeDaemon(os.Args[1:]))
		}
	}
	os.Exit(m.Run())
}

// fakeDaemon behaves like dbpserved at the harness's seams. -mode picks a
// failure: "exit" dies before binding, "drain-fail" exits 3 on SIGTERM.
func fakeDaemon(args []string) int {
	fs := flag.NewFlagSet("fake", flag.ContinueOnError)
	addr := fs.String("addr", "", "")
	addrFile := fs.String("addr-file", "", "")
	fs.Bool("log-json", false, "")
	mode := fs.String("mode", "", "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *mode == "exit" {
		fmt.Fprintln(os.Stderr, "fake: refusing to start")
		return 2
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return 1
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "# HELP dbpserved_runs_executed_total runs\n"+
			"dbpserved_runs_executed_total 3\n"+
			"dbpfleet_worker_up{worker=\"w1\"} 1.5\n")
	})
	mux.HandleFunc("POST /echo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Cache", "hit")
		io.Copy(w, r.Body)
	})
	go http.Serve(ln, mux)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
		return 1
	}
	<-sig
	if *mode == "drain-fail" {
		return 3
	}
	return 0
}

func self(t *testing.T) string {
	t.Helper()
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestBootServeDrain(t *testing.T) {
	d, err := Start(self(t), "fake")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	if status, _, err := d.Get("/healthz"); err != nil || status != http.StatusOK {
		t.Fatalf("healthz: %d, %v", status, err)
	}
	status, body, hdr, err := d.Post("/echo", `{"k": 1}`)
	if err != nil || status != http.StatusOK || string(body) != `{"k": 1}` || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("post: %d %q %v, %v", status, body, hdr, err)
	}
	if err := d.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.Exited():
	default:
		t.Fatal("Exited not closed after a successful Drain")
	}
}

func TestExitBeforeBindNamesFlags(t *testing.T) {
	_, err := Start(self(t), "fake", "-mode", "exit")
	if err == nil {
		t.Fatal("boot of a daemon that exits before binding succeeded")
	}
	for _, want := range []string{"exited before binding", "-addr-file", "-mode exit"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("boot error %q does not mention %q", err, want)
		}
	}
}

func TestDrainReportsNonZeroExit(t *testing.T) {
	d, err := Start(self(t), "fake", "-mode", "drain-fail")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	if err := d.Drain(10 * time.Second); err == nil || !strings.Contains(err.Error(), "exit status 3") {
		t.Fatalf("drain of a daemon exiting 3 = %v, want a non-zero exit error", err)
	}
}

func TestMetricsParsesLabelledSeries(t *testing.T) {
	d, err := Start(self(t), "fake")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	m, err := d.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m["dbpserved_runs_executed_total"] != 3 || m[`dbpfleet_worker_up{worker="w1"}`] != 1.5 {
		t.Fatalf("metrics = %v", m)
	}
}

func TestAwaitTimesOut(t *testing.T) {
	calls := 0
	err := Await(50*time.Millisecond, func() (bool, error) { calls++; return false, nil })
	if err == nil || !strings.Contains(err.Error(), "timed out") || calls < 2 {
		t.Fatalf("Await of a never-done check = %v after %d calls, want a timeout after several", err, calls)
	}
}
