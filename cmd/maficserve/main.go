// Command maficserve runs the crash-tolerant simulation service: an HTTP
// server that accepts scenario submissions and runs them on a supervised job
// queue. A job's durable state is its manifest (job.json) and, once it has
// finished, its result.json, both written atomically. The engine is
// deterministic, so a job that a crash (kill -9 included), a retry or a drain
// interrupted is run again from its scenario, and its result is
// bit-identical to an uninterrupted run's. What a crash costs is the
// interrupted run's work so far.
//
// Usage:
//
//	maficserve -addr 127.0.0.1:8080 -store ./maficserve-data
//
// Submit and inspect jobs over HTTP:
//
//	curl -X POST localhost:8080/jobs -d '{"scenario":"table2","quick":true}'
//	curl localhost:8080/jobs/1
//	curl localhost:8080/jobs/1/result
//	curl -X POST localhost:8080/drain
//
// SIGTERM (or POST /drain) drains: every in-flight job stops, its manifest
// still marked running, and the process exits cleanly; the next process runs
// those jobs again.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"mafic/internal/checkpoint"
	"mafic/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "maficserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("maficserve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port; see the store's addr file)")
		store     = fs.String("store", "maficserve-data", "on-disk root for job manifests and results")
		queueCap  = fs.Int("queue-cap", 16, "queued-job bound; submissions beyond it are shed with 503")
		workers   = fs.Int("workers", 2, "concurrent job runners")
		timeout   = fs.Duration("job-timeout", 0, "wall-clock budget per job attempt; 0 disables")
		retries   = fs.Int("retries", 2, "max retries after a transient job failure")
		backoff   = fs.Duration("retry-backoff", 250*time.Millisecond, "first retry delay; doubles per retry")
		drainWait = fs.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight jobs to stop on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(os.Stderr, "maficserve: ", log.LstdFlags|log.Lmicroseconds)

	sv, err := serve.New(serve.Config{
		Dir:          *store,
		QueueCap:     *queueCap,
		Workers:      *workers,
		JobTimeout:   *timeout,
		MaxRetries:   *retries,
		RetryBackoff: *backoff,
		Log:          logger,
	})
	if err != nil {
		return err
	}
	sv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Publish the bound address (meaningful with -addr :0) where clients
	// and the smoke harness can find it.
	if err := checkpoint.WriteFileAtomic(filepath.Join(*store, "addr"), []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
		return fmt.Errorf("write addr file: %w", err)
	}
	// Requests are small and answered from memory; the timeouts only keep a
	// stalled or silent client from holding a connection for ever. Responses
	// carry no deadline: a result download may be slow without being stuck.
	httpSrv := &http.Server{
		Handler:           sv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Printf("listening on %s, store %s", ln.Addr(), *store)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logger.Printf("%v: draining", sig)
	case <-sv.DrainRequested():
		logger.Printf("drain requested over HTTP")
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := sv.Shutdown(drainCtx); err != nil {
		// Jobs that missed the window stay marked running on disk; the
		// next process runs them again, so an overlong drain is not fatal.
		logger.Printf("shutdown: %v", err)
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := httpSrv.Shutdown(httpCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	logger.Printf("drained; exiting")
	return nil
}
