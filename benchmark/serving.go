package benchmark

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// clients is the load generator's connection bound: every workload's
// load comes from this process over at most two connections.
const clients = 2

// client speaks the wmserved wire protocol over loopback.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	return &client{
		hc:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}},
		url: url,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one HTTP exchange.
type reply struct {
	status int
	header http.Header
	body   []byte
}

func (c *client) do(ctx context.Context, method, path string, body []byte) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{resp.StatusCode, resp.Header, b}, err
}

// body renders the input as a /compile, /run or /jobs request.
func (in input) body(tenant string) []byte {
	level := in.level
	req := request{Source: in.src, Level: &level}
	if in.machine != (machineSpec{}) {
		m := in.machine
		req.Machine = &m
	}
	var v any = &req
	if in.endpoint == "jobs" {
		v = &jobRequest{Request: req, Tenant: tenant}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and ints always marshal
	}
	return b
}

// send posts a synchronous /compile or /run request.
func (c *client) send(ctx context.Context, in input) (reply, error) {
	return c.do(ctx, http.MethodPost, "/"+in.endpoint, in.body(""))
}

// outputField is the JSON member a correct /run body carries; wmserved
// renders bodies with encoding/json, so a substring test is exact.
func outputField(expect string) []byte {
	b, _ := json.Marshal(expect)
	return append([]byte(`"output":`), b...)
}

// compileBodies collects the distinct /compile bodies of a run, so each
// can be assembled after timing, and checks that every request for one
// (source, level) got the same bytes.
type compileBodies struct {
	mu     sync.Mutex
	byKey  map[string][sha256.Size]byte
	bodies map[[sha256.Size]byte][]byte
}

func (cb *compileBodies) add(in input, body []byte) bool {
	h := sha256.Sum256(body)
	key := strconv.Itoa(in.level) + "\x00" + in.src
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if cb.byKey == nil {
		cb.byKey = map[string][sha256.Size]byte{}
		cb.bodies = map[[sha256.Size]byte][]byte{}
	}
	if prev, ok := cb.byKey[key]; ok {
		return prev == h
	}
	cb.byKey[key] = h
	cb.bodies[h] = body
	return true
}

// verify assembles every distinct listing back into a program.
func (cb *compileBodies) verify(s *state) {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	for _, body := range cb.bodies {
		var cr compileResponse
		err := json.Unmarshal(body, &cr)
		if err == nil {
			err = assemble(cr.Listing)
		}
		s.check(err == nil, "listing does not assemble: %v", err)
	}
}

// checkSync books one synchronous exchange: a 200 whose body is right
// for the input.
func (s *state) checkSync(in input, r reply, err error, bodies *compileBodies) bool {
	switch {
	case err != nil:
		s.fail("%s %s O%d: %v", in.endpoint, in.name, in.level, err)
		return false
	case r.status != http.StatusOK:
		s.fail("%s %s O%d: status %d: %.200s", in.endpoint, in.name, in.level, r.status, r.body)
		return false
	case in.endpoint == "run":
		return s.check(bytes.Contains(r.body, outputField(in.expect)), "run %s O%d: output is not %q: %.300s", in.name, in.level, in.expect, r.body)
	default:
		return s.check(bodies.add(in, r.body), "compile %s O%d: bodies differ between requests", in.name, in.level)
	}
}

// openLoop sends the inputs on a fixed schedule, rate per second,
// through two clients, and returns each request's latency measured from
// the time it was due (so a stall delays every request queued behind
// it) and how late the generator ran for each.  A late generator sends
// overdue requests at once.
func openLoop(ctx context.Context, rate float64, ins []input, do func(input)) (lat, late []float64) {
	type due struct {
		at time.Time
		in input
	}
	// Sized to the number of sends, so the generator never blocks on
	// busy clients and its lateness is its own.
	queue := make(chan due, len(ins))
	lats := make([][]float64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for d := range queue {
				do(d.in)
				lats[c] = append(lats[c], ms(time.Since(d.at)))
			}
		}(c)
	}
	start := time.Now()
	late = make([]float64, 0, len(ins))
	for k, in := range ins {
		at := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if wait := time.Until(at); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if ctx.Err() != nil {
			break
		}
		late = append(late, ms(time.Since(at)))
		queue <- due{at, in}
	}
	close(queue)
	wg.Wait()
	for _, l := range lats {
		lat = append(lat, l...)
	}
	return lat, late
}

// closedLoop runs op on two clients, each sending its next request only
// after the previous one completed, until d has passed; it returns the
// completed operations and the time they took.
func closedLoop(ctx context.Context, d time.Duration, op func(c, n int)) (int, time.Duration) {
	var wg sync.WaitGroup
	counts := make([]int, clients)
	start := time.Now()
	end := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; ctx.Err() == nil && time.Now().Before(end); n++ {
				op(c, n)
				counts[c]++
			}
		}(c)
	}
	wg.Wait()
	total := 0
	for _, n := range counts {
		total += n
	}
	return total, time.Since(start)
}

// serveMixed is the serving workload: synchronous /compile and /run
// against a fresh in-process wmserved with its shipped defaults, in an
// open loop at 400 requests/s timed from each request's due time.  An
// op is one request.  Bound by HTTP, the cache, coalescing, the worker
// pool and small compiles, while the optimizer and the simulator do
// little.
type serveMixed struct {
	s      *state
	srv    *server
	c      *client
	bodies *compileBodies
	cycles int64
}

// serveRate is the open loop's arrival rate: about a fifth of what two
// closed-loop clients sustain on a two-core host.  At twice the rate,
// queueing widened the latency spread between runs two- to fivefold
// (README.md).
const serveRate = 400

func (w *serveMixed) setup(ctx context.Context) error {
	w.close()
	srv, err := startServer(false)
	if err != nil {
		return err
	}
	w.srv, w.c, w.bodies, w.cycles = srv, newClient(srv.url), &compileBodies{}, 0
	for level := 0; level <= 3; level++ {
		for _, endpoint := range []string{"compile", "run"} {
			for _, in := range hitInputs(level, endpoint) {
				r, err := w.c.send(ctx, in)
				if !w.s.checkSync(in, r, err, w.bodies) {
					continue
				}
				if level == 3 && endpoint == "run" {
					var rr runResponse
					if err := json.Unmarshal(r.body, &rr); err != nil {
						return fmt.Errorf("decoding /run: %w", err)
					}
					w.cycles += rr.Cycles
				}
			}
		}
	}
	return nil
}

func (w *serveMixed) measure(ctx context.Context, d time.Duration) error {
	do := func(in input) {
		r, err := w.c.send(ctx, in)
		w.s.checkSync(in, r, err, w.bodies)
	}
	g := newMixGen(w.s.cfg.Seed, 0)
	ins := make([]input, int(serveRate*d.Seconds()))
	for n := range ins {
		ins[n] = g.next(n)
	}
	lat, _ := openLoop(ctx, serveRate, ins, do)
	// Wall time, not scaled by the ruler: a request spends most of its
	// time waiting for timers and loopback I/O, which do not slow with
	// the host's cores (README.md, "The ruler").
	w.s.latencies(nil, lat)
	w.bodies.verify(w.s)
	w.s.set("sim_cycles", float64(w.cycles))
	return ctx.Err()
}

func (w *serveMixed) close() {
	if w.srv != nil {
		w.c.close()
		w.srv.close()
		w.srv = nil
	}
}

// job runs one job lifecycle: submit, then long-poll the job's
// generations until it is terminal.  It returns the terminal response,
// the submit latency and the number of polls.
func (c *client) job(ctx context.Context, in input, tenant string) (jobResponse, time.Duration, int, error) {
	start := time.Now()
	r, err := c.do(ctx, http.MethodPost, "/jobs", in.body(tenant))
	submit := time.Since(start)
	if err != nil {
		return jobResponse{}, submit, 0, err
	}
	if r.status != http.StatusAccepted {
		return jobResponse{}, submit, 0, fmt.Errorf("submit: status %d: %.200s", r.status, r.body)
	}
	var jr jobResponse
	polls := 0
	for {
		if err := json.Unmarshal(r.body, &jr); err != nil {
			return jr, submit, polls, fmt.Errorf("decoding job: %w", err)
		}
		switch jr.State {
		case "done", "failed", "canceled":
			return jr, submit, polls, nil
		}
		polls++
		r, err = c.do(ctx, http.MethodGet, fmt.Sprintf("/jobs/%s?gen=%d&wait=1s", jr.ID, jr.Gen), nil)
		if err != nil {
			return jr, submit, polls, err
		}
		if r.status != http.StatusOK {
			return jr, submit, polls, fmt.Errorf("poll: status %d: %.200s", r.status, r.body)
		}
	}
}

// checkJob books one job lifecycle: done, with the expected output.
func (s *state) checkJob(in input, jr jobResponse, err error) bool {
	if err != nil {
		s.fail("job %s: %v", in.name, err)
		return false
	}
	ok := jr.State == "done" && jr.Result != nil && jr.Result.Output == in.expect
	var out string
	if jr.Result != nil {
		out = jr.Result.Output
	}
	return s.check(ok, "job %s: state %s, error %q, output %q (want %q)", in.name, jr.State, jr.Error, out, in.expect)
}

// jobsRepeat is the job-tier workload: a closed loop on one client that
// alternates between two tenants, every iteration submitting a job,
// long-polling it to completion and deleting it.  Jobs are drawn from
// twelve distinct ones, so every job repeats an earlier one.  An op is
// one job, timed from submit to the terminal state the client sees.
// One client runs one job at a time, so the ruler, measured between
// jobs, sees the host the job saw.  Deleting finished jobs keeps the
// server's job table from growing with the number of jobs a run
// completes, which the host's speed decides.
type jobsRepeat struct {
	s      *state
	srv    *server
	c      *client
	inputs []input
	cycles int64
}

func (w *jobsRepeat) setup(ctx context.Context) error {
	w.close()
	srv, err := startServer(false)
	if err != nil {
		return err
	}
	w.srv, w.c, w.inputs, w.cycles = srv, newClient(srv.url), jobInputs(w.s.cfg.Expected), 0
	for _, in := range w.inputs {
		jr, _, _, err := w.c.job(ctx, in, "warmup")
		if w.s.checkJob(in, jr, err) && in.machine == (machineSpec{}) {
			w.cycles += jr.Result.Cycles
		}
	}
	return ctx.Err()
}

func (w *jobsRepeat) measure(ctx context.Context, d time.Duration) error {
	rng := rand.New(rand.NewSource(w.s.cfg.Seed*7919 + 1))
	r := newRuler(jobExp)
	var lat []float64
	for n, end := 0, time.Now().Add(d); n == 0 || time.Now().Before(end); n++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		in := w.inputs[rng.Intn(len(w.inputs))]
		r.tick()
		start := time.Now()
		jr, _, _, err := w.c.job(ctx, in, fmt.Sprintf("t%d", n%2))
		lat = append(lat, r.scale(ms(time.Since(start))))
		if w.s.checkJob(in, jr, err) {
			del, err := w.c.do(ctx, http.MethodDelete, "/jobs/"+jr.ID, nil)
			w.s.check(err == nil && del.status == http.StatusOK, "delete job %s: %v (status %d)", jr.ID, err, del.status)
		}
	}
	w.s.latencies(r, lat)
	w.s.set("sim_cycles", float64(w.cycles))
	return ctx.Err()
}

func (w *jobsRepeat) close() {
	if w.srv != nil {
		w.c.close()
		w.srv.close()
		w.srv = nil
	}
}
