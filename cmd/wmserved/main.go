// Command wmserved serves the wmstream compiler and simulator over
// HTTP: POST /compile and POST /run accept JSON requests, with
// content-addressed caching, request coalescing, bounded-queue load
// shedding, and Prometheus metrics on GET /metrics.  POST /jobs runs
// simulations asynchronously — long-poll GET /jobs/{id} for progress,
// DELETE /jobs/{id} to cancel — on a separate bounded worker pool with
// per-tenant fair scheduling.  With -cluster-peers, N wmserved
// processes form a consistent-hash cluster: any node serves any
// request, forwarding keys owned by healthy peers over the -peer-addr
// listener so each key is compiled at most once cluster-wide, and
// degrading to local execution when an owner is down.  See
// internal/serve for the pipeline and README.md for the wire format.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wmstream/internal/buildinfo"
	"wmstream/internal/cluster"
	"wmstream/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr        = flag.String("addr", "localhost:8037", "listen address")
		workers     = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 64, "admission queue depth; overflow is shed with 429")
		cacheMB     = flag.Int("cache-mb", 64, "response cache budget in MiB")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request compile/run deadline")
		maxSourceKB = flag.Int("max-source-kb", 1024, "largest accepted source, in KiB")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")

		jobWorkers = flag.Int("job-workers", 2, "asynchronous jobs executing at once")
		jobQueue   = flag.Int("job-queue", 32, "queued job cap across all tenants; overflow is shed with 429")
		jobTenantQ = flag.Int("job-tenant-queue", 8, "queued job cap per tenant")
		jobTimeout = flag.Duration("job-timeout", 5*time.Minute, "per-job wall-clock budget")
		jobTTL     = flag.Duration("job-ttl", 5*time.Minute, "how long finished jobs stay pollable")
		jobPollMax = flag.Duration("job-poll-max", 30*time.Second, "cap on the ?wait= long-poll of GET /jobs/{id}")
		jobDir     = flag.String("job-dir", "", "directory for the durable job journal and checkpoints (empty = memory-only jobs)")
		jobFsync   = flag.String("job-fsync", "batch", "journal fsync policy: batch, always, or never")
		jobRetries = flag.Int("job-retries", 3, "transient-failure retries per job (negative = none)")

		nodeID       = flag.String("node-id", "", "this node's cluster identity (required with -cluster-peers)")
		peerAddr     = flag.String("peer-addr", "", "internal cluster peer listener address (required with -cluster-peers)")
		clusterPeers = flag.String("cluster-peers", "", "static cluster membership as comma-separated id=host:port pairs (peer addresses), including this node; empty = single-node mode")

		debugAddr = flag.String("debug-addr", "", "private debug listener with net/http/pprof plus the trace/metrics endpoints (empty = disabled)")
		traceRing = flag.Int("trace-ring", 0, "completed traces retained for /debug/traces (0 = default 256, negative = tracing off)")
		traceSlow = flag.Duration("trace-slow", 0, "busy-time threshold above which a trace is kept in the slow ring (0 = default 500ms)")

		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Print("wmserved"))
		return 0
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "wmserved: unexpected arguments %q\n", flag.Args())
		return 2
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	// Cluster mode: a static peer list makes this node one shard of a
	// consistent-hash cluster.  The peer listener speaks the same
	// HTTP/JSON protocol as the public one — forwarded requests are
	// ordinary requests marked X-WM-Forwarded — so the cluster needs no
	// second wire format.
	var cl *cluster.Cluster
	if *clusterPeers != "" {
		if *nodeID == "" || *peerAddr == "" {
			fmt.Fprintln(os.Stderr, "wmserved: -cluster-peers requires -node-id and -peer-addr")
			return 2
		}
		peers, err := cluster.ParsePeers(*clusterPeers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wmserved: %v\n", err)
			return 2
		}
		cl, err = cluster.New(cluster.Config{Self: *nodeID, Peers: peers})
		if err != nil {
			fmt.Fprintf(os.Stderr, "wmserved: %v\n", err)
			return 2
		}
		cl.Start()
		defer cl.Close()
	}

	srv := serve.New(serve.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		CacheBytes:         int64(*cacheMB) << 20,
		RequestTimeout:     *timeout,
		MaxSourceBytes:     int64(*maxSourceKB) << 10,
		RetryAfter:         *retryAfter,
		Logger:             logger,
		Version:            buildinfo.String(),
		JobWorkers:         *jobWorkers,
		JobQueueDepth:      *jobQueue,
		JobTenantQueue:     *jobTenantQ,
		JobTimeout:         *jobTimeout,
		JobTTL:             *jobTTL,
		JobPollMax:         *jobPollMax,
		JobDir:             *jobDir,
		JobFsync:           *jobFsync,
		JobRetries:         *jobRetries,
		Cluster:            cl,
		TraceRing:          *traceRing,
		TraceSlowThreshold: *traceSlow,
	})
	if *jobDir != "" {
		rec, mode := srv.Recovery()
		logger.Info("wmserved job journal recovered",
			"dir", *jobDir, "mode", mode,
			"requeued", rec.Requeued, "resumed", rec.Resumed,
			"restored", rec.Restored, "expired", rec.Expired,
			"abandoned", rec.Abandoned,
			"torn_tails", rec.TornTails, "corrupt_records", rec.CorruptRecords)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wmserved: %v\n", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv}

	// The peer listener serves the same handler as the public one;
	// separating the addresses lets deployments firewall the internal
	// mesh away from client traffic.
	var peerSrv *http.Server
	if cl != nil {
		pln, err := net.Listen("tcp", *peerAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wmserved: peer listener: %v\n", err)
			return 1
		}
		peerSrv = &http.Server{Handler: srv}
		go peerSrv.Serve(pln)
		defer peerSrv.Close()
		logger.Info("wmserved cluster peer listening",
			"addr", pln.Addr().String(), "node", cl.Self(),
			"nodes", len(cl.Nodes()), "owned_fraction", cl.OwnedFraction())
	}

	// The optional debug listener keeps profiling and introspection off
	// the public port: pprof handlers plus the same /debug/*, /metrics,
	// and /healthz routes the main server exposes, on an address that
	// can stay firewalled or bound to localhost.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wmserved: debug listener: %v\n", err)
			return 1
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", srv) // /debug/traces, /debug/statusz, /metrics, /healthz
		debugSrv = &http.Server{Handler: mux}
		go debugSrv.Serve(dln)
		defer debugSrv.Close()
		logger.Info("wmserved debug listening", "addr", dln.Addr().String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logger.Info("wmserved listening", "addr", ln.Addr().String(), "version", buildinfo.String())

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "wmserved: %v\n", err)
		srv.Close()
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: flip /healthz to draining and reject new work,
	// let in-flight and queued requests finish, then stop the listener.
	logger.Info("wmserved draining")
	srv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *timeout+5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "wmserved: shutdown: %v\n", err)
		srv.Close()
		return 1
	}
	srv.Close()
	logger.Info("wmserved stopped")
	return 0
}
