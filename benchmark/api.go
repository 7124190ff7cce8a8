package benchmark

// This file is the benchmark's only door into the system under test.
// Every call into package wmstream and the internal/* layers goes
// through it, so an API change (collapsing the compile and run entry
// points, deleting an engine, merging the serving paths) edits this
// file and no measurement.  TestAdapterIsTheOnlyImporter enforces it.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"wmstream"
	"wmstream/internal/acode"
	"wmstream/internal/bench"
	"wmstream/internal/cluster"
	"wmstream/internal/exec"
	"wmstream/internal/minic"
	"wmstream/internal/opt"
	"wmstream/internal/rtl"
	"wmstream/internal/serve"
	"wmstream/internal/sim"
)

// source is one named Mini-C program.
type source struct {
	name string
	text string
}

// suite returns the paper's ten programs: the nine Table II benchmarks
// and Livermore loop 5 at n=2000.
func suite() []source {
	var out []source
	for _, p := range append(bench.Programs(), bench.Livermore5(2000)) {
		out = append(out, source{p.Name, p.Source})
	}
	return out
}

// --- the public API: compile and run ------------------------------------

// program is a compiled WM program.
type program struct{ p *wmstream.Program }

// compile is the public compile entry point at an optimization level.
func compile(ctx context.Context, src string, level int) (*program, error) {
	res, err := wmstream.CompileContext(ctx, src, wmstream.CompileConfig{Options: wmstream.LevelOptions(level)})
	if err != nil {
		return nil, err
	}
	return &program{res.Program}, nil
}

// listing renders the program the way wmserved does on every miss.
func (p *program) listing() string { return p.p.ListingDebug() }

// assemble parses a listing back into a program.
func assemble(asm string) error {
	_, err := wmstream.Assemble(asm)
	return err
}

// runResult is what one simulation reports.
type runResult struct {
	Cycles       int64
	Instructions int64
	Output       string
}

// machine maps the wire machine spec onto the public machine, with an
// explicit engine ("" is the default engine).
func machine(m machineSpec, engine string) wmstream.Machine {
	wm := wmstream.DefaultMachine()
	if m.MemLatency > 0 {
		wm.MemLatency = m.MemLatency
	}
	if m.FIFODepth > 0 {
		wm.FIFODepth = m.FIFODepth
	}
	wm.Engine = engine
	return wm
}

// run is the public run entry point: link, fingerprint, a pooled
// machine, and the execution core.
func run(ctx context.Context, p *program, m machineSpec, engine string) (runResult, error) {
	r, err := wmstream.RunContext(ctx, p.p, machine(m, engine))
	return runResult{r.Cycles, r.Instructions, r.Output}, err
}

// unitCycles is one functional unit's cycle count and the part of it
// charged to a stall cause (neither issued work nor idle).
type unitCycles struct {
	Unit    string
	Total   int64
	Stalled int64
}

// runUnits runs on the default machine with per-unit attribution.
func runUnits(p *program) ([]unitCycles, runResult, error) {
	r, err := wmstream.RunWithTelemetry(p.p, wmstream.DefaultMachine(), wmstream.SimOptions{})
	var units []unitCycles
	for _, u := range r.Units {
		units = append(units, unitCycles{u.Unit, u.Total, u.Total - u.Issued - u.Idle})
	}
	return units, runResult{r.Cycles, r.Instructions, r.Output}, err
}

// runTraced runs through the telemetry entry point on the default
// machine, recording (and discarding) a Chrome trace when traced is set.
func runTraced(p *program, traced bool) error {
	var o wmstream.SimOptions
	if traced {
		o.TraceJSON = io.Discard
	}
	_, err := wmstream.RunWithTelemetry(p.p, wmstream.DefaultMachine(), o)
	return err
}

// --- the layers, called one at a time by the traced probe --------------

// ast is a parsed and checked Mini-C program.
type ast struct{ p *minic.Program }

// rtlProgram is a program in RTL form, before or after optimization.
type rtlProgram struct{ p *rtl.Program }

// parse is the front end (lexer, parser, semantic checks).
func parse(src string) (*ast, error) {
	p, err := minic.Compile(src)
	return &ast{p}, err
}

// expand is the code expander: naive RTL with virtual registers.
func expand(a *ast) (*rtlProgram, error) {
	p, err := acode.Gen(a.p)
	return &rtlProgram{p}, err
}

// instrs counts the executable (non-label) instructions.
func (r *rtlProgram) instrs() int {
	n := 0
	for _, f := range r.p.Funcs {
		for _, i := range f.Code {
			if i.Kind != rtl.KLabel {
				n++
			}
		}
	}
	return n
}

// listing renders the optimized program with debug annotations.
func (r *rtlProgram) listing() string { return r.p.StringDebug() }

// passHook is called as an optimizer pass starts; the function it
// returns is called as the pass ends.
type passHook func(pass string) (end func())

// optStats are the optimizer's exact counters for one compilation.
type optStats struct {
	Fires  map[string]int // per pass, invocations that changed the code
	Rounds int            // fixpoint-group rounds to convergence
}

// optimize runs the WM pipeline the public compile runs for the level,
// on the given number of workers (0 = default), with every pass wrapped
// by hook when it is non-nil.
func optimize(r *rtlProgram, level, workers int, hook passHook) (optStats, error) {
	ctx := opt.NewContext(opt.Level(level))
	ctx.Workers = workers
	pl := opt.WMPipeline(ctx.Opts)
	if hook != nil {
		pl.Steps = wrapSteps(pl.Steps, hook)
	}
	if err := pl.Run(r.p, ctx); err != nil {
		return optStats{}, err
	}
	st := optStats{Fires: map[string]int{}}
	for _, ps := range ctx.Stats().Passes() {
		if ps.Name[0] == '[' { // a fixpoint group
			st.Rounds += ps.Rounds
			continue
		}
		st.Fires[ps.Name] += ps.Fires
	}
	return st, nil
}

// wrapSteps replaces every pass of the steps with a same-named pass that
// reports its start and end to hook.
func wrapSteps(steps []opt.Step, hook passHook) []opt.Step {
	wrap := func(p opt.Pass) opt.Pass {
		return opt.NewPass(p.Name(), func(f *rtl.Func, ctx *opt.Context) (bool, error) {
			defer hook(p.Name())()
			return p.Run(f, ctx)
		})
	}
	out := make([]opt.Step, len(steps))
	for i, s := range steps {
		if s.Pass != nil {
			s.Pass = wrap(s.Pass)
		}
		if s.Fixpoint != nil {
			fp := make([]opt.Pass, len(s.Fixpoint))
			for j, p := range s.Fixpoint {
				fp[j] = wrap(p)
			}
			s.Fixpoint = fp
		}
		s.OnChange = wrapSteps(s.OnChange, hook)
		out[i] = s
	}
	return out
}

// pipelinePasses names the passes of the WM pipeline at a level, in
// first-use order.
func pipelinePasses(level int) []string {
	var names []string
	seen := map[string]bool{}
	var walk func([]opt.Step)
	walk = func(steps []opt.Step) {
		for _, s := range steps {
			ps := s.Fixpoint
			if s.Pass != nil {
				ps = []opt.Pass{s.Pass}
			}
			for _, p := range ps {
				if !seen[p.Name()] {
					seen[p.Name()] = true
					names = append(names, p.Name())
				}
			}
			walk(s.OnChange)
		}
	}
	walk(opt.WMPipeline(opt.Level(level)).Steps)
	return names
}

// image is a linked program.
type image struct{ img *sim.Image }

// link lays out the program for the simulator.
func link(r *rtlProgram) (*image, error) {
	img, err := sim.Link(r.p)
	return &image{img}, err
}

// fingerprint computes the image's content address (cached per image).
func (i *image) fingerprint() { i.img.Fingerprint() }

// simConfig is the simulator configuration for a wire machine spec.
func simConfig(m machineSpec, engine string) (sim.Config, error) {
	cfg := sim.DefaultConfig()
	if m.MemLatency > 0 {
		cfg.MemLatency = m.MemLatency
	}
	if m.FIFODepth > 0 {
		cfg.FIFODepth = m.FIFODepth
	}
	e, err := sim.ParseEngine(engine)
	cfg.Engine = e
	return cfg, err
}

// simMachine is a machine from the pool with its output captured.
type simMachine struct {
	m   *sim.Machine
	out *bytes.Buffer
}

// acquire takes a machine for the image from the pool.
func acquire(img *image, m machineSpec, engine string) (*simMachine, error) {
	cfg, err := simConfig(m, engine)
	if err != nil {
		return nil, err
	}
	out := &bytes.Buffer{}
	cfg.Output = out
	return &simMachine{sim.Acquire(img.img, cfg), out}, nil
}

// release returns the machine to the pool.
func (m *simMachine) release() { sim.Release(m.m) }

// run drives the machine to completion through the execution core.
func (m *simMachine) run(ctx context.Context) (runResult, error) {
	st, err := exec.Run(ctx, m.m, exec.Options{})
	return runResult{st.Cycles, st.Instructions, m.out.String()}, err
}

// coldStart builds a machine for an image and runs its first one-cycle
// slice; it reports whether the translation cache missed, which it must
// for an image the process has not run before.
func coldStart(img *image) (missed bool, err error) {
	before := sim.TranslationCacheStats().Misses
	m := sim.New(img.img, sim.DefaultConfig())
	_, err = m.RunSlice(1)
	return sim.TranslationCacheStats().Misses > before, err
}

// --- wmserved ------------------------------------------------------------

// The wire protocol.
type (
	request         = serve.Request
	jobRequest      = serve.JobRequest
	machineSpec     = serve.MachineSpec
	runResponse     = serve.RunResponse
	compileResponse = serve.CompileResponse
	jobResponse     = serve.JobResponse
)

// server is an in-process wmserved on a loopback listener.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	cl   *cluster.Cluster
	url  string
	done chan struct{}
}

// startServer runs a fresh wmserved with its shipped defaults, or with
// tracing off when traceOff is set.
func startServer(traceOff bool) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{}
	if traceOff {
		cfg.TraceRing = -1
	}
	return serveOn(ln, serve.New(cfg), nil), nil
}

func serveOn(ln net.Listener, srv *serve.Server, cl *cluster.Cluster) *server {
	s := &server{srv: srv, cl: cl, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.hs = &http.Server{Handler: srv}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s
}

// startCluster runs n wmserved nodes on loopback listeners, wired into
// one static consistent-hash ring (no probe loop: every peer stays up).
func startCluster(n int) ([]*server, error) {
	lns := make([]net.Listener, n)
	peers := make([]cluster.Peer, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		peers[i] = cluster.Peer{ID: fmt.Sprintf("n%d", i), Addr: "http://" + ln.Addr().String()}
	}
	var nodes []*server
	for i, ln := range lns {
		cl, err := cluster.New(cluster.Config{Self: peers[i].ID, Peers: peers})
		if err != nil {
			for _, s := range nodes {
				s.close()
			}
			for _, l := range lns[i:] {
				l.Close()
			}
			return nil, err
		}
		nodes = append(nodes, serveOn(ln, serve.New(serve.Config{Cluster: cl}), cl))
	}
	return nodes, nil
}

// ServeHTTP is the in-process path into the server, without a socket.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.srv.ServeHTTP(w, r) }

// close drains and stops the server and waits for its listener loop.
func (s *server) close() {
	s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	s.srv.Close()
	if s.cl != nil {
		s.cl.Close()
	}
}
