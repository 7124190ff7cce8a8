package benchmark

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// probe is the traced run.  It replays a seed-sampled subset of the
// workload's own inputs through the layers one call at a time, with a
// span around every call, and derives the per-layer metrics from the
// spans and from counters read at the same boundaries:
//
//   - ops: the workload's operations decomposed into layer calls
//     (front end, code expander, every optimizer pass, listing, link,
//     fingerprint, machine acquire, execution), each also run untraced
//     through the public API for the tracing overhead;
//   - layers: the exact counters over the whole suite at O3, allocation
//     counts, the parallel optimizer, cold translation, the reference
//     engine and the simulator's own trace recorder;
//   - serve: in-process and loopback cache hits, then an open-loop
//     replay of the inputs against a fresh wmserved;
//   - jobs: the inputs as jobs against a fresh wmserved;
//   - cluster: one forward over a two-node ring.
type probe struct {
	s        *state
	rng      *rand.Rand
	workload string
	inputs   []input
	tr       *tracer

	runInstrs, refInstrs int64 // instructions behind the sim.run and sim.reference spans
}

func (p *probe) run(ctx context.Context, d time.Duration) error {
	p.tr = newTracer()
	gc0, cpu0 := gcCPU()
	start := time.Now()
	at := func(frac float64) time.Time { return start.Add(time.Duration(frac * float64(d))) }
	for _, section := range []func() error{
		func() error { return p.ops(ctx, at(0.45)) },
		func() error { return p.layers(ctx) },
		func() error { return p.serve(ctx, at(0.85)) },
		func() error { return p.jobs(ctx, at(0.95)) },
		func() error { return p.cluster(ctx) },
	} {
		if err := section(); err != nil {
			return err
		}
	}
	gc1, cpu1 := gcCPU()
	p.s.set("go.gc_cpu_pct", 100*(gc1-gc0)/(cpu1-cpu0))
	p.spanMetrics()
	for _, m := range perLayer() {
		if _, ok := p.s.metrics[m.Name]; !ok {
			return fmt.Errorf("traced run did not measure %s", m.Name)
		}
	}
	if p.s.cfg.Spans != nil {
		return p.tr.writeChrome(p.s.cfg.Spans)
	}
	return nil
}

// gcCPU reads the runtime's cumulative GC and total CPU time estimates.
// The runtime brings them up to date only when a collection ends, so it
// collects first; otherwise a short probe can read no CPU time at all.
func gcCPU() (gc, total float64) {
	runtime.GC()
	ss := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(ss)
	return ss[0].Value.Float64(), ss[1].Value.Float64()
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// sample is a seed-chosen handful of the workload's distinct inputs.
func (p *probe) sample(n int) []input {
	seen := map[string]bool{}
	var out []input
	for _, i := range p.rng.Perm(len(p.inputs)) {
		in := p.inputs[i]
		key := fmt.Sprintf("%d\x00%+v\x00%s", in.level, in.machine, in.src)
		if !seen[key] {
			seen[key] = true
			out = append(out, in)
		}
		if len(out) == n {
			break
		}
	}
	return out
}

// hook opens a span per optimizer pass under parent.
func (p *probe) hook(parent int32) passHook {
	return func(pass string) func() {
		id := p.tr.child(parent, "opt.pass."+pass)
		return func() { p.tr.end(id) }
	}
}

// compileChain is the public compile decomposed: front end, code
// expander and the optimizer on one worker, a span per pass.
func (p *probe) compileChain(parent int32, in input) (*rtlProgram, error) {
	var a *ast
	var r *rtlProgram
	err := p.tr.call(parent, "minic.parse", func() (err error) { a, err = parse(in.src); return })
	if err == nil {
		err = p.tr.call(parent, "acode.gen", func() (err error) { r, err = expand(a); return })
	}
	if err == nil {
		id := p.tr.child(parent, "opt.pipeline")
		_, err = optimize(r, in.level, 1, p.hook(id))
		p.tr.end(id)
	}
	return r, err
}

// runChain is the public run decomposed: link, fingerprint, a pooled
// machine, the execution core, and the machine's release.
func (p *probe) runChain(ctx context.Context, parent int32, r *rtlProgram, in input) error {
	var img *image
	var m *simMachine
	var res runResult
	err := p.tr.call(parent, "sim.link", func() (err error) { img, err = link(r); return })
	if err != nil {
		return err
	}
	p.tr.call(parent, "sim.fingerprint", func() error { img.fingerprint(); return nil })
	if err := p.tr.call(parent, "sim.acquire", func() (err error) { m, err = acquire(img, in.machine, ""); return }); err != nil {
		return err
	}
	err = p.tr.call(parent, "sim.run", func() (err error) { res, err = m.run(ctx); return })
	p.tr.call(parent, "sim.release", func() error { m.release(); return nil })
	p.runInstrs += res.Instructions
	if err == nil && res.Output != in.expect {
		err = fmt.Errorf("output %q, want %q", res.Output, in.expect)
	}
	return err
}

// ops replays the workload's operations until the deadline: compiles
// for suite-compile, simulations of precompiled programs for suite-sim,
// and whole requests (compile, listing and, for runs, simulation) for
// the serving workloads.  Traced and untraced runs of each operation
// alternate, and their time difference is the tracing overhead.
func (p *probe) ops(ctx context.Context, until time.Time) error {
	traced := map[int]*rtlProgram{} // suite-sim: programs compiled for the run ops
	public := map[int]*program{}
	if p.workload == "suite-sim" {
		for i, in := range p.inputs {
			root := p.tr.root("prepare", 1)
			r, err := p.compileChain(root, in)
			p.tr.end(root)
			if err != nil {
				return fmt.Errorf("compile %s O%d: %w", in.name, in.level, err)
			}
			if public[i], err = compile(ctx, in.src, in.level); err != nil {
				return fmt.Errorf("compile %s O%d: %w", in.name, in.level, err)
			}
			traced[i] = r
		}
	}
	tracedOp := func(i int) error {
		in := p.inputs[i]
		root := p.tr.root("op", 1)
		defer p.tr.end(root)
		switch p.workload {
		case "suite-compile":
			_, err := p.compileChain(root, in)
			return err
		case "suite-sim":
			return p.runChain(ctx, root, traced[i], in)
		}
		r, err := p.compileChain(root, in)
		if err != nil {
			return err
		}
		p.tr.call(root, "rtl.listing", func() error { r.listing(); return nil })
		if in.endpoint == "compile" {
			return nil
		}
		return p.runChain(ctx, root, r, in)
	}
	untracedOp := func(i int) error {
		in := p.inputs[i]
		prog := public[i]
		if prog == nil {
			var err error
			if prog, err = compile(ctx, in.src, in.level); err != nil || p.workload == "suite-compile" {
				return err
			}
			prog.listing()
			if in.endpoint == "compile" {
				return nil
			}
		}
		r, err := run(ctx, prog, in.machine, "")
		if err == nil && r.Output != in.expect {
			err = fmt.Errorf("output %q, want %q", r.Output, in.expect)
		}
		return err
	}

	var withSpans, without time.Duration
	order := p.rng.Perm(len(p.inputs))
	for n := 0; n == 0 || time.Now().Before(until); n++ {
		i := order[n%len(order)]
		in := p.inputs[i]
		for k := 0; k < 2; k++ {
			f, total := tracedOp, &withSpans
			if (n+k)%2 == 1 {
				f, total = untracedOp, &without
			}
			start := time.Now()
			err := f(i)
			*total += time.Since(start)
			p.s.check(err == nil, "%s %s O%d: %v", in.endpoint, in.name, in.level, err)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	p.s.set("bench.trace_overhead_pct", 100*(withSpans.Seconds()-without.Seconds())/without.Seconds())
	return nil
}

// layers measures what the operations do not: the exact counters over
// the whole suite, allocations, the parallel optimizer, cold
// translation, the reference engine and the simulator's trace recorder.
func (p *probe) layers(ctx context.Context) error {
	if err := p.exactCounters(ctx); err != nil {
		return err
	}
	sample := p.sample(4)
	root := p.tr.root("layers", 1)
	defer p.tr.end(root)

	var parseAllocs, optAllocs, runAllocs uint64
	var smallest *program
	var smallestInstrs int64
	for n, in := range sample {
		m0 := mallocs()
		a, err := parse(in.src)
		m1 := mallocs()
		if err != nil {
			return fmt.Errorf("parse %s: %w", in.name, err)
		}
		r, err := expand(a)
		if err != nil {
			return fmt.Errorf("expand %s: %w", in.name, err)
		}
		m2 := mallocs()
		if _, err := optimize(r, in.level, 1, nil); err != nil {
			return fmt.Errorf("optimize %s: %w", in.name, err)
		}
		parseAllocs += m1 - m0
		optAllocs += mallocs() - m2

		// The parallel optimizer, as the public compile runs it.
		if err := p.tr.call(root, "opt.parallel", func() error {
			r2, err := expand(a)
			if err == nil {
				_, err = optimize(r2, in.level, 0, nil)
			}
			return err
		}); err != nil {
			return fmt.Errorf("optimize %s: %w", in.name, err)
		}
		p.tr.call(root, "rtl.listing", func() error { r.listing(); return nil })

		// A warm run (the machine pool and the translation primed by an
		// untraced run first), then its allocations.
		img, err := link(r)
		if err != nil {
			return fmt.Errorf("link %s: %w", in.name, err)
		}
		pooledRun := func() (runResult, error) {
			m, err := acquire(img, in.machine, "")
			if err != nil {
				return runResult{}, err
			}
			defer m.release()
			return m.run(ctx)
		}
		res, err := pooledRun()
		if err != nil {
			return fmt.Errorf("run %s: %w", in.name, err)
		}
		err = p.runChain(ctx, root, r, in)
		p.s.check(err == nil, "run %s O%d: %v", in.name, in.level, err)
		m3 := mallocs()
		if _, err := pooledRun(); err != nil {
			return fmt.Errorf("run %s: %w", in.name, err)
		}
		runAllocs += mallocs() - m3

		// Cold translation: the same program with one more global is an
		// image this process has never run.
		cold := in.src + fmt.Sprintf("\nint wmbench_cold_%d;\n", n)
		ca, err := parse(cold)
		if err != nil {
			return fmt.Errorf("parse %s: %w", in.name, err)
		}
		cr, err := expand(ca)
		if err == nil {
			_, err = optimize(cr, in.level, 0, nil)
		}
		var cimg *image
		if err == nil {
			cimg, err = link(cr)
		}
		if err != nil {
			return fmt.Errorf("compile cold %s: %w", in.name, err)
		}
		var missed bool
		err = p.tr.call(root, "sim.translate_cold", func() (err error) { missed, err = coldStart(cimg); return })
		p.s.check(err == nil && missed, "cold start %s: %v (translation cache missed: %t)", in.name, err, missed)

		if smallest == nil || res.Instructions < smallestInstrs {
			if smallest, err = compile(ctx, in.src, in.level); err != nil {
				return err
			}
			smallestInstrs = res.Instructions
		}
	}
	n := uint64(len(sample))
	p.s.set("minic.allocs", float64(parseAllocs/n))
	p.s.set("opt.allocs", float64(optAllocs/n))
	p.s.set("sim.run_allocs", float64(runAllocs/n))

	// The reference engine on the same programs, within a time budget.
	end := time.Now().Add(time.Second)
	for _, in := range sample {
		r, err := compile(ctx, in.src, in.level)
		if err != nil {
			return err
		}
		var res runResult
		err = p.tr.call(root, "sim.reference", func() (err error) { res, err = run(ctx, r, in.machine, "reference"); return })
		p.s.check(err == nil && res.Output == in.expect, "reference run %s O%d: %v", in.name, in.level, err)
		p.refInstrs += res.Instructions
		if time.Now().After(end) {
			break
		}
	}

	// The simulator's own trace recorder, on the smallest program (its
	// trace is held in memory).
	var plain, traced []float64
	for k := 0; k < 3; k++ {
		for _, on := range []bool{false, true} {
			start := time.Now()
			err := runTraced(smallest, on)
			p.s.check(err == nil, "telemetry run: %v", err)
			if on {
				traced = append(traced, time.Since(start).Seconds())
			} else {
				plain = append(plain, time.Since(start).Seconds())
			}
		}
	}
	p.s.set("sim.trace_overhead_x", median(traced)/median(plain))
	return nil
}

// exactCounters compiles the ten suite programs at O3 and runs them on
// the default machine: code sizes, pass fire counts, fixpoint rounds,
// cycles and stall attribution, all deterministic.
func (p *probe) exactCounters(ctx context.Context) error {
	var naive, optimized, rounds int
	fires := map[string]int{}
	stalled := map[string]int64{}
	totals := map[string]int64{}
	for _, s := range suite() {
		a, err := parse(s.text)
		if err != nil {
			return fmt.Errorf("parse %s: %w", s.name, err)
		}
		r, err := expand(a)
		if err != nil {
			return fmt.Errorf("expand %s: %w", s.name, err)
		}
		naive += r.instrs()
		st, err := optimize(r, 3, 0, nil)
		if err != nil {
			return fmt.Errorf("optimize %s: %w", s.name, err)
		}
		optimized += r.instrs()
		rounds += st.Rounds
		for pass, n := range st.Fires {
			fires[pass] += n
		}
		prog, err := compile(ctx, s.text, 3)
		if err != nil {
			return fmt.Errorf("compile %s: %w", s.name, err)
		}
		us, res, err := runUnits(prog)
		p.s.check(err == nil && res.Output == p.s.cfg.Expected[s.name], "run %s O3: %v: output %q", s.name, err, res.Output)
		p.s.set("sim.cycles."+s.name, float64(res.Cycles))
		for _, u := range us {
			g := strings.ToLower(strings.TrimRight(u.Unit, "0123456789"))
			stalled[g] += u.Stalled
			totals[g] += u.Total
		}
	}
	p.s.set("acode.instrs", float64(naive))
	p.s.set("opt.instrs", float64(optimized))
	p.s.set("opt.fixpoint_rounds", float64(rounds))
	for _, pass := range pipelinePasses(3) {
		p.s.set("opt.pass."+pass+"_fires", float64(fires[pass]))
	}
	for _, g := range stallUnits {
		p.s.set("sim."+g+"_stall_pct", 100*float64(stalled[g])/float64(totals[g]))
	}
	return nil
}

// serverTiming parses a Server-Timing header into stage durations (ms).
func serverTiming(h string) map[string]float64 {
	out := map[string]float64{}
	for _, entry := range strings.Split(h, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		for _, kv := range parts[1:] {
			if v, ok := strings.CutPrefix(kv, "dur="); ok {
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					out[parts[0]] = f
				}
			}
		}
	}
	return out
}

// counter sums every sample of a Prometheus counter family.
func counter(text []byte, family string) float64 {
	var sum float64
	for _, line := range strings.Split(string(text), "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// scrape reads the compile and simulation counters from /metrics.
func scrape(ctx context.Context, c *client) (compiles, sims float64, err error) {
	r, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	return counter(r.body, "wmserved_compiles_total"), counter(r.body, "wmserved_engine_runs_total"), nil
}

// replayRate is the serve replay's open-loop arrival rate: the
// workload's own rate for serve-mixed, and for the other workloads,
// whose requests are whole suite programs, a rate their cache hits
// sustain easily.
func (p *probe) replayRate() float64 {
	if p.workload == "serve-mixed" {
		return serveRate
	}
	return 50
}

// serve measures wmserved: a cached /compile in process (with tracing
// on and off) and over loopback, then an open-loop replay of the inputs
// against a fresh server until the deadline.
func (p *probe) serve(ctx context.Context, until time.Time) error {
	srv, err := startServer(false)
	if err != nil {
		return err
	}
	defer srv.close()
	off, err := startServer(true)
	if err != nil {
		return err
	}
	defer off.close()
	c := newClient(srv.url)
	defer c.close()

	offc := newClient(off.url)
	defer offc.close()

	hit := p.sample(1)[0]
	hit.endpoint = "compile"
	body := hit.body("")
	for _, cl := range []*client{c, offc} {
		r, err := cl.send(ctx, hit)
		if !p.s.checkSync(hit, r, err, &compileBodies{}) {
			return fmt.Errorf("priming the cache failed")
		}
	}
	inProcess := func(s *server) time.Duration {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body))
		start := time.Now()
		s.ServeHTTP(rec, req)
		d := time.Since(start)
		p.s.check(rec.Code == http.StatusOK && rec.Header().Get("X-Cache") == "hit", "in-process hit: status %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
		return d
	}
	var on, noTrace, loop []float64
	for k := 0; k < 300; k++ {
		on = append(on, float64(inProcess(srv)))
		noTrace = append(noTrace, float64(inProcess(off)))
		start := time.Now()
		r, err := c.send(ctx, hit)
		loop = append(loop, float64(time.Since(start)))
		p.s.check(err == nil && r.status == http.StatusOK && r.header.Get("X-Cache") == "hit", "loopback hit: %v", err)
	}
	m0 := mallocs()
	for k := 0; k < 100; k++ {
		inProcess(srv)
	}
	p.s.set("serve.hit_allocs", float64(mallocs()-m0)/100)
	p.s.set("serve.hit_us", median(on)/1e3)
	p.s.set("serve.http_us", (median(loop)-median(on))/1e3)
	p.s.set("obs.trace_overhead_pct", 100*(median(on)-median(noTrace))/median(noTrace))

	// The replay: the workload's inputs in seed-shuffled rounds, on the
	// endpoints its requests use (alternating /compile and /run for the
	// in-process workloads).
	rate := p.replayRate()
	n := max(int(rate*time.Until(until).Seconds()), 20)
	ins := make([]input, n)
	order := p.rng.Perm(len(p.inputs))
	for k := range ins {
		ins[k] = p.inputs[order[k%len(order)]]
		if p.workload != "serve-mixed" {
			ins[k].endpoint = [2]string{"compile", "run"}[k%2]
		}
	}
	type outcome struct {
		endpoint, cache string
		status          int
		dur             time.Duration
		timing          map[string]float64
	}
	results := make(chan outcome, n) // one per request
	bodies := &compileBodies{}
	c0, s0, err := scrape(ctx, c)
	if err != nil {
		return err
	}
	_, late := openLoop(ctx, rate, ins, func(in input) {
		start := time.Now()
		r, err := c.send(ctx, in)
		o := outcome{endpoint: in.endpoint, dur: time.Since(start)}
		p.s.checkSync(in, r, err, bodies)
		if err == nil {
			o.status, o.cache, o.timing = r.status, r.header.Get("X-Cache"), serverTiming(r.header.Get("Server-Timing"))
		}
		results <- o
	})
	close(results)
	bodies.verify(p.s)
	c1, s1, err := scrape(ctx, c)
	if err != nil {
		return err
	}
	var ok, hits, coalesced, shed, queued float64
	var queue float64
	missLat := map[string][]float64{}
	for o := range results {
		switch o.status {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		}
		switch o.cache {
		case "hit":
			hits++
		case "coalesced":
			coalesced++
		case "miss":
			missLat[o.endpoint] = append(missLat[o.endpoint], ms(o.dur))
		}
		if q, found := o.timing["queue"]; found {
			queue += q
			queued++
		}
	}
	reqs := float64(n)
	p.s.set("serve.hit_ratio", hits/ok)
	p.s.set("serve.coalesced_ratio", coalesced/ok)
	p.s.set("serve.shed_ratio", shed/reqs)
	p.s.set("serve.compiles_per_req", (c1-c0)/reqs)
	p.s.set("serve.sims_per_req", (s1-s0)/reqs)
	p.s.set("serve.queue_wait_ms", queue/max(queued, 1))
	p.s.set("serve.miss_compile_ms", median(missLat["compile"]))
	p.s.set("serve.miss_run_ms", median(missLat["run"]))
	p.s.set("loadgen.late_p50_ms", percentile(late, 0.50))
	p.s.set("loadgen.late_p99_ms", percentile(late, 0.99))
	return nil
}

// jobs submits the inputs as jobs on two clients until the deadline.
func (p *probe) jobs(ctx context.Context, until time.Time) error {
	srv, err := startServer(false)
	if err != nil {
		return err
	}
	defer srv.close()
	c := newClient(srv.url)
	defer c.close()
	c0, s0, err := scrape(ctx, c)
	if err != nil {
		return err
	}
	order := p.rng.Perm(len(p.inputs))
	submits := make([][]float64, clients)
	polls := make([]int, clients)
	n, _ := closedLoop(ctx, max(time.Until(until), 100*time.Millisecond), func(cl, n int) {
		in := p.inputs[order[(clients*n+cl)%len(order)]]
		in.endpoint = "jobs"
		jr, submit, np, err := c.job(ctx, in, fmt.Sprintf("t%d", cl))
		p.s.checkJob(in, jr, err)
		submits[cl] = append(submits[cl], ms(submit))
		polls[cl] += np
	})
	c1, s1, err := scrape(ctx, c)
	if err != nil {
		return err
	}
	jobs := float64(n)
	p.s.set("serve.job_submit_ms", median(append(submits[0], submits[1]...)))
	p.s.set("serve.job_polls_per_job", float64(polls[0]+polls[1])/jobs)
	p.s.set("serve.job_compiles_per_job", (c1-c0)/jobs)
	p.s.set("serve.job_sims_per_job", (s1-s0)/jobs)
	return nil
}

// cluster measures one forward hop: a cached /compile sent to the node
// that does not own it, minus the same request sent to its owner.
func (p *probe) cluster(ctx context.Context) error {
	nodes, err := startCluster(2)
	if err != nil {
		return err
	}
	defer func() {
		for _, n := range nodes {
			n.close()
		}
	}()
	cs := []*client{newClient(nodes[0].url), newClient(nodes[1].url)}
	defer cs[0].close()
	defer cs[1].close()
	in := p.sample(1)[0]
	in.endpoint = "compile"
	r, err := cs[0].send(ctx, in)
	if err != nil || r.status != http.StatusOK {
		return fmt.Errorf("cluster compile: %v (status %d)", err, r.status)
	}
	owner := 0
	if r.header.Get("X-WM-Node") == "n1" {
		owner = 1
	}
	var forwarded, local []float64
	for k := 0; k < 100; k++ {
		for _, node := range []int{1 - owner, owner} {
			start := time.Now()
			r, err := cs[node].send(ctx, in)
			d := ms(time.Since(start))
			p.s.check(err == nil && r.status == http.StatusOK && r.header.Get("X-WM-Node") == fmt.Sprintf("n%d", owner) &&
				r.header.Get("X-Cache") == "hit", "cluster hit via n%d: %v", node, err)
			if node == owner {
				local = append(local, d)
			} else {
				forwarded = append(forwarded, d)
			}
		}
	}
	p.s.set("cluster.forward_hop_ms", median(forwarded)-median(local))
	return nil
}

// spanMetrics derives the per-layer timings from the spans.
func (p *probe) spanMetrics() {
	agg := p.tr.aggregate()
	get := func(name string) *layerTime {
		if lt := agg[name]; lt != nil {
			return lt
		}
		return &layerTime{}
	}
	mean := func(name string) time.Duration {
		lt := get(name)
		if lt.count == 0 {
			return 0
		}
		return lt.total / time.Duration(lt.count)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	p.s.set("minic.parse_ms", ms(mean("minic.parse")))
	p.s.set("acode.gen_ms", ms(mean("acode.gen")))
	p.s.set("opt.pipeline_ms", ms(mean("opt.pipeline")))
	p.s.set("opt.parallel_ms", ms(mean("opt.parallel")))
	compiles := time.Duration(max(get("opt.pipeline").count, 1))
	for _, pass := range pipelinePasses(3) {
		p.s.set("opt.pass."+pass+"_ms", ms(get("opt.pass."+pass).total/compiles))
	}
	p.s.set("rtl.listing_ms", ms(mean("rtl.listing")))
	p.s.set("sim.link_us", us(mean("sim.link")))
	p.s.set("sim.fingerprint_us", us(mean("sim.fingerprint")))
	p.s.set("sim.acquire_us", us(mean("sim.acquire")+mean("sim.release")))
	p.s.set("sim.translate_cold_ms", ms(mean("sim.translate_cold")))
	p.s.set("sim.run_minstr_per_s", float64(p.runInstrs)/get("sim.run").total.Seconds()/1e6)
	p.s.set("sim.reference_minstr_per_s", float64(p.refInstrs)/get("sim.reference").total.Seconds()/1e6)
	op := get("op")
	p.s.set("bench.span_cover_pct", 100*(1-op.self.Seconds()/op.total.Seconds()))
}
