// wmrepro regenerates the paper's tables and figures.
//
// Usage:
//
//	wmrepro -fig 4|5|6|7        one figure's listing
//	wmrepro -table 1            Table I  (recurrence optimization, 5 machines)
//	wmrepro -table 2            Table II (streaming, 9 programs)
//	wmrepro -table 34           Tables III/IV substitute (optimizer quality)
//	wmrepro -all                everything
//	wmrepro -size n -reps n     Table I workload parameters
//	wmrepro -bench-json f.json  per-benchmark telemetry report
//
// -bench-json runs every benchmark at -O0 and -O3 and writes a JSON
// array of records — cycles, memory traffic, stream throughput, and
// each functional unit's utilization and stall attribution — for
// machine consumption (dashboards, regression diffs).
//
// Table I defaults to the paper's array size of 100,000 (with the
// kernel repeated so it dominates); pass a smaller -size for a quick
// run.
package main

import (
	"flag"
	"fmt"
	"os"

	"wmstream/internal/bench"
	"wmstream/internal/buildinfo"
	"wmstream/internal/cli"
	"wmstream/internal/experiments"
	"wmstream/internal/sim"
)

func main() {
	fig := flag.Int("fig", 0, "regenerate figure 4, 5, 6 or 7")
	table := flag.String("table", "", "regenerate table: 1, 2 or 34")
	all := flag.Bool("all", false, "regenerate everything")
	size := flag.Int("size", 100000, "Table I array size")
	reps := flag.Int("reps", 10, "Table I kernel repetitions")
	benchJSON := flag.String("bench-json", "", "write per-benchmark telemetry records to this JSON file")
	engineName := flag.String("engine", "auto", "simulation engine for -bench-json runs: auto, translated, or reference")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Print("wmrepro"))
		return
	}
	engine, err := sim.ParseEngine(*engineName)
	if err != nil {
		fatal(err)
	}

	did := false
	if *benchJSON != "" {
		f, err := os.Create(*benchJSON)
		if err != nil {
			fatal(err)
		}
		err = bench.WriteJSON(f, bench.Programs(), []int{0, 3}, engine)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		did = true
	}
	if *all || *fig == 4 || *fig == 5 || *fig == 7 {
		stages := []int{*fig}
		if *all {
			stages = []int{4, 5, 7}
		}
		for _, st := range stages {
			s, err := experiments.Figure(st)
			if err != nil {
				fatal(err)
			}
			fmt.Println(s)
			did = true
		}
	}
	if *all || *fig == 6 {
		s, err := experiments.Figure6()
		if err != nil {
			fatal(err)
		}
		fmt.Println(s)
		did = true
	}
	if *all || *table == "1" {
		rows, err := experiments.Table1(*size, *reps)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatTable1(rows))
		did = true
	}
	if *all || *table == "2" {
		rows, err := experiments.Table2()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatTable2(rows))
		did = true
	}
	if *all || *table == "34" {
		rows, g1, g3, err := experiments.Table34()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatTable34(rows, g1, g3))
		did = true
	}
	if !did {
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, cli.RenderError("wmrepro", err))
	os.Exit(1)
}
