// Command mgserved is the HTTP serving daemon: it loads a directory of
// tuned-table JSON files (as written by mgtune) into a pbmg.Registry and
// serves JSON solve requests over HTTP with per-family admission quotas,
// bounded queues with explicit load-shedding, hot-reload, graceful drain,
// and fault-hardened solves: request deadlines cancel admitted solves
// mid-cycle, a non-finite answer is refused as diverged, kernel
// panics answer 500 without taking the process down, and a per-family
// circuit breaker (-breaker-threshold, -breaker-cooldown) sheds 503 +
// Retry-After after consecutive solver failures.
//
//	mkdir tables
//	mgtune -size 65 -machine intel-harpertown -o tables/poisson.json
//	mgtune -size 17 -family poisson3d -machine intel-harpertown -o tables/poisson3d.json
//	mgserved -addr :8080 -configdir tables/ -quota poisson=6,poisson3d=2
//
// Signals: SIGHUP rebuilds the catalog from -configdir and swaps it
// atomically (a broken directory leaves the live catalog serving);
// SIGTERM/SIGINT drain gracefully — new requests are shed with 503 while
// every admitted solve runs to completion, then the process exits 0.
//
// Endpoints (see pbmg/serve for the wire types):
//
//	POST /v1/solve   {"family","eps","n","accuracy","b":[...],"x":[...]}
//	POST /v1/batch   one family's batch under one queue slot
//	GET  /metrics    per-family admission/queue/shed/failure counters
//	GET  /healthz    200 while the process serves, 503 draining
//	GET  /readyz     200 ready; 503 when draining or a breaker is open
//	POST /-/reload   same as SIGHUP, over HTTP
//	POST /-/fault    chaos builds only (-tags faultinject): arm fault spec
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"pbmg"
	"pbmg/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	configdir := flag.String("configdir", "", "directory of tuned-table JSON files (one per family, from mgtune)")
	workers := flag.Int("workers", runtime.NumCPU(), "kernel worker threads shared by all solves")
	inflight := flag.Int("inflight", 0, "global max in-flight solves (0: 2×GOMAXPROCS; raised to the quota sum when quotas bind)")
	quota := flag.String("quota", "", "per-family concurrent-solve quotas, e.g. poisson=6,aniso:0.01=4,poisson3d=2")
	quotaDefault := flag.Int("quota-default", 0, "quota for families not named in -quota (0: global limit only)")
	queue := flag.Int("queue", 0, "per-family admission queue depth before shedding 429s (0: 4×quota)")
	maxWait := flag.Duration("maxwait", serve.DefaultMaxWait, "request timeout (admission + solve) for requests without a deadline")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight solves on SIGTERM")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive solver failures opening a family's circuit breaker (0: default 5)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open-breaker shed window before a half-open probe (0: default 5s)")
	flag.Parse()
	if *configdir == "" {
		fatal(errors.New("-configdir is required"))
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mgserved: "+format+"\n", args...)
	}

	cfg := serve.Config{
		Dir:          *configdir,
		Workers:      *workers,
		MaxInFlight:  *inflight,
		DefaultQuota: *quotaDefault,
		QueueDepth:   *queue,
		MaxWait:      *maxWait,
		Breaker:      pbmg.BreakerConfig{Threshold: *breakerThreshold, Cooldown: *breakerCooldown},
		Logf:         logf,
	}
	if *quota != "" {
		q, err := serve.ParseQuotaSpec(*quota)
		if err != nil {
			fatal(err)
		}
		cfg.Quotas = q
	}

	srv, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGTERM, syscall.SIGINT)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	// The resolved address, so -addr :0 callers (tests, scripts) learn the
	// picked port.
	logf("listening on %s", ln.Addr())

	for {
		select {
		case err := <-errc:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				fatal(err)
			}
			return
		case sig := <-sigs:
			switch sig {
			case syscall.SIGHUP:
				if v, err := srv.Reload(); err != nil {
					logf("%v", err)
				} else {
					logf("catalog version %d live", v)
				}
			default: // SIGTERM / SIGINT: graceful drain
				logf("%v: draining (grace %v)", sig, *drainTimeout)
				ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
				srv.BeginDrain()
				shutdownErr := httpSrv.Shutdown(ctx) // stops accepting, waits handlers
				drainErr := srv.Drain(ctx)
				cancel()
				srv.Close()
				if shutdownErr != nil || drainErr != nil {
					fatal(errors.Join(shutdownErr, drainErr))
				}
				logf("drained cleanly")
				return
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mgserved:", err)
	os.Exit(1)
}
