// Command dbpserved serves the DBP simulator over HTTP: POST simulation
// requests, receive schema-v1 run ledgers, with a bounded worker pool,
// backpressure, and a content-addressed result cache deduplicating
// identical work (see internal/serve).
//
// Usage:
//
//	dbpserved -addr :8080
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/runs -d '{"mix": "W8-M1", "partition": "dbp"}'
//	curl -s -X POST 'localhost:8080/v1/runs?async=1' -d '{"mix": "W8-H1"}'   # 202 + poll URL
//	curl -s localhost:8080/metrics
//
// Fleet mode (see internal/fleet and docs/FLEET.md) shards the service
// across machines — one coordinator owning placement, N workers running
// simulations:
//
//	dbpserved -coordinator -addr :9000
//	dbpserved -join http://coord:9000 -advertise http://worker1:8080 -addr :8080
//	curl -sN -X POST coord:9000/v1/sweeps -d '{"mixes":["W8-M1"],"partitions":["none","dbp"]}'
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, queued and
// in-flight simulations finish, then the process exits 0. If the drain
// grace period expires first, in-flight simulations are canceled at their
// next scheduler quantum and recorded as canceled jobs — shutdown is
// bounded either way.
//
// With -journal-dir set, async job state and results persist across
// restarts: finished jobs keep answering GET /v1/runs/{id} (and their
// ledgers keep cache-hitting), and running jobs checkpoint their simulation
// state every -checkpoint-interval CPU cycles. A job interrupted by a crash
// or an expired drain grace is requeued at its original id on the next
// start and resumes from its latest checkpoint — bit-identical to an
// uninterrupted run — falling back to a clean rerun when no usable
// checkpoint exists. Superseded checkpoint blobs are pruned as newer ones
// land.
//
// -chaos enables the fault-injection layer (internal/chaos) for resilience
// drills — e.g. -chaos 'panic=2,delay=250ms'. It is refused unless
// -chaos-allow is also set, so a stray flag can never put fault injection
// in front of real traffic.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dbpsim/internal/chaos"
	"dbpsim/internal/fleet"
	"dbpsim/internal/serve"
	"dbpsim/internal/tenant"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dbpserved:", err)
		os.Exit(1)
	}
}

// run is the testable body of main: all error paths return (so deferred
// cleanup runs) and the caller owns the exit code.
func run(args []string) error {
	fs := flag.NewFlagSet("dbpserved", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		addrFile   = fs.String("addr-file", "", "write the bound listen address to this file (for scripts that use port 0)")
		workers    = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queueDepth = fs.Int("queue", 64, "job queue depth; a full queue answers 429")
		runTimeout = fs.Duration("run-timeout", 5*time.Minute, "cap on synchronous waits and on per-run execution (requests may ask for less via ?timeout=)")
		maxInstr   = fs.Uint64("max-instructions", 0, "per-request warmup+measure cap (0 = uncapped)")
		drainGrace = fs.Duration("drain-grace", 10*time.Minute, "how long shutdown waits before canceling in-flight simulations")
		logJSON    = fs.Bool("log-json", false, "structured logs as JSON lines instead of key=value text")
		journalDir = fs.String("journal-dir", "", "persist job state, checkpoints, and results under this directory (survives restarts)")
		ckptEvery  = fs.Uint64("checkpoint-interval", 25_000_000, "simulated CPU cycles between run checkpoints (needs -journal-dir or -join)")
		chaosSpec  = fs.String("chaos", "", "fault-injection spec, e.g. 'panic=2,delay=250ms,journal=3' (requires -chaos-allow)")
		chaosAllow = fs.Bool("chaos-allow", false, "explicitly permit -chaos (refused otherwise)")

		tenantsFile = fs.String("tenants", "", "tenant config file (API keys, weights, lanes, quotas); reloaded when it changes on disk")

		coordinator = fs.Bool("coordinator", false, "run as a fleet coordinator: owns placement and the sweep API, runs no simulations itself")
		joinURL     = fs.String("join", "", "run as a fleet worker: register with (and heartbeat to) this coordinator base URL")
		advertise   = fs.String("advertise", "", "base URL peers reach this worker at (fleet worker mode; default http://<bound addr>)")
		workerID    = fs.String("worker-id", "", "stable worker identity on the ring (fleet worker mode; default the advertise address)")
		heartbeat   = fs.Duration("heartbeat", 2*time.Second, "fleet worker heartbeat interval")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordinator && *joinURL != "" {
		return fmt.Errorf("-coordinator and -join are mutually exclusive: a node is either the coordinator or a worker")
	}

	var reg *tenant.Registry
	if *tenantsFile != "" {
		r, err := tenant.NewRegistry(*tenantsFile)
		if err != nil {
			return err
		}
		reg = r
	}

	var injector *chaos.Injector
	if *chaosSpec != "" {
		if !*chaosAllow {
			return fmt.Errorf("-chaos %q refused: fault injection needs the explicit -chaos-allow flag", *chaosSpec)
		}
		inj, err := chaos.Parse(*chaosSpec)
		if err != nil {
			return err
		}
		injector = inj
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	log := slog.New(handler)

	// Register the drain signals before the listener exists, so a signal
	// arriving at any point after startup is never fatal mid-drain.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	// Coordinator mode: placement + sweep API only, no simulation pool.
	// With -journal-dir the coordinator is crash-survivable: it replays its
	// journal before listening, then resyncs with live workers and resumes
	// unfinished sweeps in the background once the listener is up.
	if *coordinator {
		coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{
			MaxInstructions: *maxInstr,
			CellTimeout:     *runTimeout * 3,
			Tenants:         reg,
			JournalDir:      *journalDir,
			Chaos:           injector,
			Logger:          log,
		})
		if err != nil {
			return err
		}
		defer coord.Close()
		if injector != nil {
			log.Warn("CHAOS MODE: fault injection active", "spec", injector.String())
		}
		ln, bound, cleanup, err := listen(*addr, *addrFile)
		if err != nil {
			return err
		}
		defer cleanup()
		httpSrv := &http.Server{Handler: coord}
		serveErr := make(chan error, 1)
		go func() { serveErr <- httpSrv.Serve(ln) }()
		log.Info("coordinator listening", "addr", bound)
		resumeCtx, cancelResume := context.WithCancel(context.Background())
		defer cancelResume()
		coord.Resume(resumeCtx)
		select {
		case sig := <-stop:
			log.Info("coordinator shutting down", "signal", sig.String())
		case err := <-serveErr:
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return fmt.Errorf("http shutdown: %w", err)
		}
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		log.Info("coordinator exiting")
		return nil
	}

	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	opt := serve.Options{
		Workers:            *workers,
		QueueDepth:         *queueDepth,
		RunTimeout:         *runTimeout,
		MaxInstructions:    *maxInstr,
		Logger:             log,
		JournalDir:         *journalDir,
		CheckpointInterval: *ckptEvery,
		Chaos:              injector,
		Tenants:            reg,
	}

	// Worker mode: bind the listener first (the advertise default needs the
	// bound address), wire the fleet hooks into the server options, then
	// join the coordinator once the HTTP surface is live.
	var fleetWorker *fleet.Worker
	ln, bound, cleanup, err := listen(*addr, *addrFile)
	if err != nil {
		return err
	}
	defer cleanup()

	if *joinURL != "" {
		adv := *advertise
		if adv == "" {
			adv = "http://" + bound
		}
		id := *workerID
		if id == "" {
			id = adv
		}
		fleetWorker, err = fleet.NewWorker(fleet.WorkerOptions{
			ID:                id,
			Advertise:         adv,
			Coordinator:       *joinURL,
			HeartbeatInterval: *heartbeat,
			Chaos:             injector,
			Logger:            log,
		})
		if err != nil {
			return err
		}
		opt.Peers = fleetWorker.Consult()
		opt.OnCheckpoint = fleetWorker.OnCheckpoint
		opt.ExtraMetrics = fleetWorker.ExtraMetrics
	}

	srv, err := serve.New(opt)
	if err != nil {
		return err
	}
	if injector != nil {
		log.Warn("CHAOS MODE: fault injection active", "spec", injector.String())
	}

	var rootHandler http.Handler = srv
	if fleetWorker != nil {
		fleetWorker.Attach(srv)
		rootHandler = fleetWorker
	}
	httpSrv := &http.Server{Handler: rootHandler}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	log.Info("listening", "addr", bound, "workers", *workers, "queue", *queueDepth)

	if fleetWorker != nil {
		// An unreachable coordinator is not fatal: past the deadline the
		// worker starts degraded (standalone serving) and keeps retrying the
		// join in the background.
		joinCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		err := fleetWorker.Start(joinCtx)
		cancel()
		if err != nil {
			return err
		}
		defer fleetWorker.Stop()
		log.Info("fleet membership loop running", "coordinator", *joinURL)
	}

	select {
	case sig := <-stop:
		log.Info("shutting down", "signal", sig.String())
	case err := <-serveErr:
		return err
	}

	// Drain: stop accepting, then let queued and in-flight simulations
	// finish before exiting.
	ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := srv.Close(ctx); err != nil {
		return err
	}
	log.Info("drained; exiting")
	return nil
}

// listen binds the address and handles the -addr-file contract. cleanup
// removes the addr file; call it via defer.
func listen(addr, addrFile string) (net.Listener, string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", nil, err
	}
	bound := ln.Addr().String()
	cleanup := func() {}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound), 0o644); err != nil {
			ln.Close()
			return nil, "", nil, err
		}
		cleanup = func() { os.Remove(addrFile) }
	}
	return ln, bound, cleanup, nil
}
