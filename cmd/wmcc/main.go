// wmcc is the compiler driver: it compiles a Mini-C source file to WM
// assembly at a chosen optimization level.
//
// Usage:
//
//	wmcc [-O level] [-g] [-fn name] [-o out.wm] [-stats] [-strict] [-debug-passes] file.mc
//
// Levels: 0 naive, 1 standard optimizations, 2 +recurrence
// optimization, 3 +streaming (default).  With -fn only that function's
// listing is printed (handy for comparing against the paper's
// figures).  -g annotates every instruction with its source line
// ("@N"); wmsim reads the annotations back, so profiles survive the
// assembly round trip.  -stats prints a per-pass table (invocations,
// fires, instruction delta, time) to stderr; -debug-passes additionally
// dumps each function's RTL before optimization and after every pass
// that changed it (vpo's -d dumps) and runs the RTL invariant checker
// at every pass boundary.
//
// When an optimization pass misbehaves (panics, corrupts the IR, or
// fails to converge) the compiler contains the fault: the function is
// rolled back and compiled without that pass, and wmcc reports the
// degradation on stderr.  -strict turns any such degradation into a
// compilation failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"wmstream"
	"wmstream/internal/buildinfo"
	"wmstream/internal/cli"
)

func main() {
	level := flag.Int("O", 3, "optimization level 0..3")
	debugInfo := flag.Bool("g", false, "annotate instructions with @line debug info")
	fn := flag.String("fn", "", "print only this function's listing")
	out := flag.String("o", "", "output file (default stdout)")
	stats := flag.Bool("stats", false, "print per-pass statistics to stderr")
	strict := flag.Bool("strict", false, "fail compilation when a faulty pass is contained instead of degrading")
	debugPasses := flag.Bool("debug-passes", false, "dump RTL after every firing pass and verify IR invariants")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Print("wmcc"))
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wmcc [-O level] [-fn name] [-o out.wm] [-stats] [-strict] [-debug-passes] file.mc")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	cfg := wmstream.CompileConfig{
		Options: wmstream.LevelOptions(*level),
		Strict:  *strict,
	}
	if *debugPasses {
		cfg.Debug = io.Writer(os.Stderr)
	}
	res, err := wmstream.CompileContext(context.Background(), string(src), cfg)
	for _, d := range res.Diagnostics {
		fmt.Fprintf(os.Stderr, "wmcc: %s\n", d)
	}
	if err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Fprint(os.Stderr, res.Stats.Table())
	}
	p := res.Program

	text := p.Listing()
	if *debugInfo {
		text = p.ListingDebug()
	}
	if *fn != "" {
		text = p.FuncListing(*fn)
		if text == "" {
			fatal(fmt.Errorf("no function %q", *fn))
		}
	}
	if *out == "" {
		fmt.Print(text)
		return
	}
	if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, cli.RenderError("wmcc", err))
	os.Exit(1)
}
