// Command wmbench runs the repository's benchmark (see
// benchmark/README.md):
//
//	wmbench -workload suite-sim -seed 1 -seconds 20 -trace 0 [-out ledger.json] [-spans spans.json]
//	wmbench -compare old.json new.json
//
// A run prints every metric by name with its unit, then, as its last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With -trace 1 the metrics are the per-layer ones of a traced run.  It
// exits 1 when an operation failed or an output was wrong.  -out appends
// the run, stamped with host, CPU, nproc, Go version and commit
// ($WMBENCH_COMMIT), to a ledger file; -compare prints two ledgers'
// medians, quartiles and changes against the bounds in BENCHMARK.json
// and exits 1 on a regression.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"wmstream/benchmark"
)

func main() {
	workload := flag.String("workload", "suite-compile", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "seconds the run measures")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := flag.String("out", "", "append the run to this ledger file")
	spans := flag.String("spans", "", "write the traced run's spans to this file as Chrome trace-event JSON")
	compare := flag.Bool("compare", false, "compare two ledgers: wmbench -compare old.json new.json")
	spec := flag.String("spec", "BENCHMARK.json", "the benchmark definition (for -compare)")
	flag.Parse()

	if *compare {
		os.Exit(runCompare(*spec, flag.Args()))
	}
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := benchmark.Config{
		Workload: *workload,
		Seed:     *seed,
		Duration: time.Duration(*seconds) * time.Second,
		Trace:    *trace == 1,
		Log:      os.Stderr,
	}
	var spanFile *os.File
	if *spans != "" {
		f, err := os.Create(*spans)
		if err != nil {
			fatal(err)
		}
		spanFile, cfg.Spans = f, f
	}
	stamp := benchmark.NewStamp(os.Getenv("WMBENCH_COMMIT"))
	res, err := benchmark.Run(ctx, cfg)
	if spanFile != nil {
		if cerr := spanFile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("# wmbench %s seed=%d seconds=%d trace=%d host=%s cpu=%q nproc=%d go=%s commit=%s\n",
		*workload, *seed, *seconds, *trace, stamp.Host, stamp.CPU, stamp.NProc, stamp.Go, stamp.Commit)
	for _, n := range res.Notes {
		fmt.Printf("# %s\n", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("# %d operations, %d failed\n", res.Attempted, res.Failed)
	if *out != "" {
		run := benchmark.LedgerRun{Workload: *workload, Seed: *seed, Trace: cfg.Trace, Stamp: stamp, Result: *res}
		if err := benchmark.AppendLedger(*out, run); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func runCompare(specPath string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: wmbench -compare old.json new.json")
		return 2
	}
	spec, err := benchmark.ReadSpec(specPath)
	if err != nil {
		fatal(err)
	}
	old, err := benchmark.ReadLedger(args[0])
	if err != nil {
		fatal(err)
	}
	cur, err := benchmark.ReadLedger(args[1])
	if err != nil {
		fatal(err)
	}
	if benchmark.Compare(os.Stdout, spec, old, cur) {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wmbench:", err)
	os.Exit(1)
}
