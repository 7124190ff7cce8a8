package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// blockSlot occupies class's only running slot until the returned
// release func is called.
func blockSlot(t *testing.T, s *scheduler, class int) (release func()) {
	t.Helper()
	started, unblock := make(chan struct{}), make(chan struct{})
	if _, err := s.submit(context.Background(), class, "blocker", func(context.Context) {
		close(started)
		<-unblock
	}); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	<-started
	var once sync.Once
	release = func() { once.Do(func() { close(unblock) }) }
	t.Cleanup(release)
	return release
}

// TestPoolOverload: a class with one running slot and one queued slot
// (the shape of the server's sync worker pool at Workers: 1,
// QueueDepth: 1) sheds a third submission with ErrOverloaded.
func TestPoolOverload(t *testing.T) {
	s := newScheduler(classCaps{running: 1, queued: 1, lane: 1})
	t.Cleanup(s.close)
	release := blockSlot(t, s, 0)

	errs := make(chan error, 1)
	go func() { errs <- s.do(context.Background(), 0, "", func(context.Context) {}) }()
	waitFor(t, "queued entry", func() bool { return s.gauges(0).queued == 1 })

	if err := s.do(context.Background(), 0, "", func(context.Context) {}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue: err = %v, want ErrOverloaded", err)
	}
	release()
	if err := <-errs; err != nil {
		t.Fatalf("queued entry: %v", err)
	}
}

// TestPoolSkipsExpiredTasks: an entry whose context expires while it
// waits is finished with that error when its turn comes, and never
// runs.
func TestPoolSkipsExpiredTasks(t *testing.T) {
	s := newScheduler(classCaps{running: 1, queued: 4, lane: 4})
	t.Cleanup(s.close)
	release := blockSlot(t, s, 0)

	ctx, cancel := context.WithCancel(context.Background())
	ran := false
	e, err := s.submit(ctx, 0, "", func(context.Context) { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	release() // free the slot so the scheduler reaches the expired entry
	<-e.done
	if !errors.Is(e.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", e.err)
	}
	if ran {
		t.Fatal("expired entry ran")
	}
	if _, err := s.submit(ctx, 0, "", func(context.Context) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("submit with an expired context: err = %v, want context.Canceled", err)
	}
}

// TestPoolDraining: close lets every admitted entry run before it
// returns, refuses new work with ErrDraining, and is idempotent.
func TestPoolDraining(t *testing.T) {
	s := newScheduler(classCaps{running: 2, queued: 4, lane: 4})
	var mu sync.Mutex
	ran := 0
	for n := 0; n < 6; n++ {
		if _, err := s.submit(context.Background(), 0, "", func(context.Context) {
			time.Sleep(time.Millisecond)
			mu.Lock()
			ran++
			mu.Unlock()
		}); err != nil {
			t.Fatalf("submit %d: %v", n, err)
		}
	}
	s.close()
	if ran != 6 {
		t.Fatalf("%d of 6 admitted entries ran before close returned", ran)
	}
	if err := s.do(context.Background(), 0, "", func(context.Context) {}); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
	s.close() // idempotent
}

// TestSchedulerLanesRoundRobin: waiting entries are served one per lane
// per turn, FIFO within a lane.
func TestSchedulerLanesRoundRobin(t *testing.T) {
	s := newScheduler(classCaps{running: 1, queued: 8, lane: 8})
	t.Cleanup(s.close)
	release := blockSlot(t, s, 0)

	var mu sync.Mutex
	var order []string
	var es []*entry
	for _, name := range []string{"a1", "a2", "a3", "b1", "c1", "b2"} {
		e, err := s.submit(context.Background(), 0, name[:1], func(context.Context) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		es = append(es, e)
	}
	release()
	for _, e := range es {
		<-e.done
	}
	if got, want := strings.Join(order, " "), "a1 b1 c1 a2 b2 a3"; got != want {
		t.Fatalf("service order %q, want %q", got, want)
	}
}

// TestSchedulerLaneCap: a full lane sheds with errLaneFull while other
// lanes still get in, until the class cap sheds everyone.
func TestSchedulerLaneCap(t *testing.T) {
	s := newScheduler(classCaps{running: 1, queued: 2, lane: 1})
	t.Cleanup(s.close)
	blockSlot(t, s, 0)

	noop := func(context.Context) {}
	if _, err := s.submit(context.Background(), 0, "a", noop); err != nil {
		t.Fatal(err)
	}
	if _, err := s.submit(context.Background(), 0, "a", noop); !errors.Is(err, errLaneFull) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("lane over cap: err = %v, want errLaneFull wrapping ErrOverloaded", err)
	}
	if _, err := s.submit(context.Background(), 0, "b", noop); err != nil {
		t.Fatalf("other lane: %v", err)
	}
	if _, err := s.submit(context.Background(), 0, "c", noop); !errors.Is(err, ErrOverloaded) || errors.Is(err, errLaneFull) {
		t.Fatalf("class over cap: err = %v, want ErrOverloaded", err)
	}
	if g := s.gauges(0); g.queued != 2 || g.running != 1 || g.workers != 1 {
		t.Fatalf("gauges %+v, want 2 queued, 1 running, 1 worker", g)
	}
}

// TestSchedulerRemove: a waiting entry can be taken out and never runs;
// a running one cannot.
func TestSchedulerRemove(t *testing.T) {
	s := newScheduler(classCaps{running: 1, queued: 4, lane: 4})
	t.Cleanup(s.close)
	release := blockSlot(t, s, 0)

	ran := make(chan string, 2)
	first, _ := s.submit(context.Background(), 0, "a", func(context.Context) { ran <- "first" })
	second, _ := s.submit(context.Background(), 0, "a", func(context.Context) { ran <- "second" })
	if !s.remove(first) {
		t.Fatal("remove of a waiting entry failed")
	}
	<-first.done
	if !errors.Is(first.err, context.Canceled) {
		t.Fatalf("removed entry err = %v, want context.Canceled", first.err)
	}
	if s.remove(first) {
		t.Fatal("second remove succeeded")
	}
	release()
	<-second.done
	if got := <-ran; got != "second" {
		t.Fatalf("ran %q, want only the second entry", got)
	}
	if s.remove(second) {
		t.Fatal("remove of a finished entry succeeded")
	}
}

// TestSchedulerDoLeavesQueueOnExpiry: a waiter whose context expires
// returns at once and frees its queue slot instead of holding it until
// a running slot opens.
func TestSchedulerDoLeavesQueueOnExpiry(t *testing.T) {
	s := newScheduler(classCaps{running: 1, queued: 1, lane: 1})
	t.Cleanup(s.close)
	blockSlot(t, s, 0)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.do(ctx, 0, "", func(context.Context) { t.Error("expired entry ran") }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if g := s.gauges(0); g.queued != 0 {
		t.Fatalf("queued = %d after the waiter gave up, want 0", g.queued)
	}
}

// TestSchedulerClassIsolation: a class with its running slots full does
// not hold up another class.
func TestSchedulerClassIsolation(t *testing.T) {
	s := newScheduler(classCaps{running: 1, queued: 1, lane: 1}, classCaps{running: 1, queued: 1, lane: 1})
	t.Cleanup(s.close)
	blockSlot(t, s, 0)
	done := make(chan error, 1)
	go func() { done <- s.do(context.Background(), 1, "", func(context.Context) {}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("class 1 waited on class 0's running slot")
	}
}

// TestSchedulerConcurrent: many submitters across two classes and
// several lanes, a third of them with contexts that expire while they
// wait; no class ever runs more than its cap, every admitted entry
// finishes, and close leaves both classes empty.
func TestSchedulerConcurrent(t *testing.T) {
	caps := []classCaps{{running: 2, queued: 8, lane: 3}, {running: 1, queued: 4, lane: 2}}
	s := newScheduler(caps...)
	var mu sync.Mutex
	running, peak := make([]int, len(caps)), make([]int, len(caps))
	var wg sync.WaitGroup
	for n := 0; n < 64; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			class := n % len(caps)
			ctx, cancel := context.WithCancel(context.Background())
			if n%3 == 0 {
				ctx, cancel = context.WithTimeout(context.Background(), time.Duration(n%5)*time.Millisecond)
			}
			defer cancel()
			err := s.do(ctx, class, strconv.Itoa(n%4), func(context.Context) {
				mu.Lock()
				running[class]++
				peak[class] = max(peak[class], running[class])
				mu.Unlock()
				time.Sleep(time.Millisecond)
				mu.Lock()
				running[class]--
				mu.Unlock()
			})
			if err != nil && !errors.Is(err, ErrOverloaded) && !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("entry %d: %v", n, err)
			}
		}()
	}
	wg.Wait()
	s.close()
	for class, c := range caps {
		if peak[class] > c.running {
			t.Errorf("class %d ran %d at once, cap %d", class, peak[class], c.running)
		}
		if g := s.gauges(class); g.queued != 0 || g.running != 0 {
			t.Errorf("class %d after close: %+v", class, g)
		}
	}
}

// blockingHook is a CompileHook that parks the execution of one key
// until released and counts executions per key.
type blockingHook struct {
	execCounter
	block   Key
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newBlockingHook(t *testing.T, block Key) *blockingHook {
	h := &blockingHook{block: block, entered: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(h.unblock)
	return h
}

func (h *blockingHook) unblock() { h.once.Do(func() { close(h.release) }) }

func (h *blockingHook) hook(k Key) {
	h.execCounter.hook(k)
	if k == h.block {
		close(h.entered)
		<-h.release
	}
}

// TestSyncDeadlineWhileQueued: a sync request whose budget runs out
// while it waits behind a busy worker answers 504 "deadline exceeded
// while queued" and never executes.
func TestSyncDeadlineWhileQueued(t *testing.T) {
	src := func(n int) *Request {
		return &Request{Source: fmt.Sprintf(`int main(void) { puti(%d); return 0; }`, n)}
	}
	blocker, late := src(0), src(1)
	h := newBlockingHook(t, blocker.cacheKey(kindCompile))
	srv, ts := newTestServer(t, Config{Workers: 1, CompileHook: h.hook})

	first := make(chan reply, 1)
	go func() { first <- post(t, ts, "/compile", blocker) }()
	<-h.entered
	if g := srv.sched.gauges(syncClass); g.running != 1 {
		t.Fatalf("sync running = %d, want 1", g.running)
	}

	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/compile", bytes.NewReader(mustJSON(late)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set(headerDeadline, strconv.FormatInt(time.Now().Add(100*time.Millisecond).UnixMicro(), 10))
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline exceeded while queued") {
		t.Fatalf("body %s, want the queued-deadline message", body)
	}

	h.unblock()
	if r := <-first; r.status != http.StatusOK {
		t.Fatalf("blocking request: status %d, body %s", r.status, r.body)
	}
	if n := h.count(late.cacheKey(kindCompile)); n != 0 {
		t.Fatalf("expired request executed %d times, want 0", n)
	}
}

// TestClassIsolation: sync requests and jobs have separate running
// slots, so neither waits on the other's work.
func TestClassIsolation(t *testing.T) {
	t.Run("sync past a blocked job", func(t *testing.T) {
		job := &JobRequest{Request: Request{Source: `int main(void) { puti(7); return 0; }`}}
		h := newBlockingHook(t, job.cacheKey(kindRun))
		_, ts := newTestServer(t, Config{JobWorkers: 1, CompileHook: h.hook})
		res, jr := submitJob(t, ts, job)
		if res.status != http.StatusAccepted {
			t.Fatalf("submit status %d, body %s", res.status, res.body)
		}
		<-h.entered
		if r := post(t, ts, "/compile", &Request{Source: helloSrc}); r.status != http.StatusOK {
			t.Fatalf("sync /compile behind a blocked job: status %d, body %s", r.status, r.body)
		}
		h.unblock()
		if done := waitTerminal(t, ts, jr.ID, 0); done.State != "done" {
			t.Fatalf("job ended %q (%s)", done.State, done.Error)
		}
	})
	t.Run("job past a blocked sync request", func(t *testing.T) {
		req := &Request{Source: `int main(void) { puti(8); return 0; }`}
		h := newBlockingHook(t, req.cacheKey(kindCompile))
		_, ts := newTestServer(t, Config{Workers: 1, CompileHook: h.hook})
		first := make(chan reply, 1)
		go func() { first <- post(t, ts, "/compile", req) }()
		<-h.entered
		res, jr := submitJob(t, ts, &JobRequest{Request: Request{Source: helloSrc}})
		if res.status != http.StatusAccepted {
			t.Fatalf("submit status %d, body %s", res.status, res.body)
		}
		if done := waitTerminal(t, ts, jr.ID, 0); done.State != "done" {
			t.Fatalf("job behind a blocked sync request ended %q (%s)", done.State, done.Error)
		}
		h.unblock()
		if r := <-first; r.status != http.StatusOK {
			t.Fatalf("blocked sync request: status %d, body %s", r.status, r.body)
		}
	})
}
