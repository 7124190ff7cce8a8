// Command wmload generates mixed compile/run traffic against a running
// wmserved instance and prints a latency/status report with
// per-endpoint p50/p95/p99.  The traffic blends repeat programs (cache
// hits), unique programs (cold compiles), and all four optimization
// levels, so a short run exercises the cache, the coalescer, and the
// admission queue together.  With -jobs (or -job-fraction), a share of
// the traffic drives full asynchronous job lifecycles — submit,
// long-poll progress generations, and occasional mid-flight cancels —
// exercising the job queue, the fairness scheduler, and the TTL
// expiry path.  With -trace, every request carries a W3C traceparent
// so the server records a full trace for it, and the report adds the
// server-side per-stage timing breakdown (queue wait, compile, sim,
// journal) plus the trace ID of the slowest request for follow-up in
// GET /debug/traces.  With -job-heavy, every job runs the same
// compute-heavy loop (with a per-job constant, so none is answered
// from the server's response cache) and the report's "jobs done/s"
// line becomes the headline — the scenario for comparing wmserved
// -job-workers settings.
// With -endpoints a,b,c the load spreads across the nodes of a
// wmserved cluster — round-robin by default, or pinned per program
// with -affinity key — and the report adds per-node request, error,
// and latency breakdowns.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wmstream/internal/buildinfo"
	"wmstream/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		url         = flag.String("url", "http://localhost:8037", "wmserved base URL")
		endpoints   = flag.String("endpoints", "", "comma-separated base URLs of a wmserved cluster; overrides -url and adds per-node breakdowns")
		affinity    = flag.String("affinity", "rr", "multi-endpoint target policy: rr (round-robin) or key (pin each program to one node)")
		duration    = flag.Duration("duration", 10*time.Second, "how long to generate load")
		concurrency = flag.Int("c", 16, "concurrent client goroutines")
		hitFrac     = flag.Float64("hit-fraction", 0.7, "fraction of requests reusing a fixed program set")
		runFrac     = flag.Float64("run-fraction", 0.5, "fraction of requests hitting /run instead of /compile")
		jobs        = flag.Bool("jobs", false, "drive all traffic through the asynchronous job API")
		jobFrac     = flag.Float64("job-fraction", 0, "fraction of iterations driving a job lifecycle (submit, poll, cancel)")
		jobHeavy    = flag.Bool("job-heavy", false, "job traffic submits one compute-heavy program (a distinct constant per job, so every job simulates) and reports jobs done/s (the wmserved -job-workers comparison scenario; implies -jobs)")
		retries     = flag.Int("retries", 3, "retry shed (429/503) responses this many times with capped backoff, honoring Retry-After")
		trace       = flag.Bool("trace", false, "send a traceparent with every request and report the server's per-stage timing breakdown")
		seed        = flag.Int64("seed", 1, "traffic mix seed")
		version     = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Print("wmload"))
		return 0
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "wmload: unexpected arguments %q\n", flag.Args())
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	jf := *jobFrac
	if (*jobs || *jobHeavy) && jf == 0 {
		jf = 1
	}
	var urls []string
	if *endpoints != "" {
		for _, u := range strings.Split(*endpoints, ",") {
			u = strings.TrimSuffix(strings.TrimSpace(u), "/")
			if u == "" {
				continue
			}
			if !strings.Contains(u, "://") {
				u = "http://" + u
			}
			urls = append(urls, u)
		}
	}
	rep, err := serve.RunLoad(ctx, serve.LoadConfig{
		BaseURL:     *url,
		BaseURLs:    urls,
		Affinity:    *affinity,
		Duration:    *duration,
		Concurrency: *concurrency,
		HitFraction: *hitFrac,
		RunFraction: *runFrac,
		JobFraction: jf,
		JobHeavy:    *jobHeavy,
		Seed:        *seed,
		Retries:     *retries,
		Trace:       *trace,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wmload: %v\n", err)
		return 1
	}
	fmt.Print(rep.String())
	if rep.Requests == 0 {
		fmt.Fprintln(os.Stderr, "wmload: no requests completed (is wmserved running?)")
		return 1
	}
	return 0
}
