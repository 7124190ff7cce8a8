package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// The scheduler is the one queue in front of execution.  Work is
// submitted to a class; a class bounds how many of its entries run at
// once and how many wait, and its waiting entries sit in per-lane FIFOs
// that are served round-robin, each lane under its own queued cap, so
// one lane cannot fill the class or starve another lane.  Classes are
// independent: an entry waits only for its own class's running slots,
// so one class's long work never starves another's.  A submission
// finding its queue full is rejected at once rather than parked — the
// queued caps are the server's entire memory bound for pending work.
//
// The scheduler knows nothing of what it runs.  The server maps sync
// cache misses to one class with a single lane and jobs to another
// with one lane per tenant.

// ErrOverloaded is returned when a class's queue is full; the server
// translates it to 429 + Retry-After (load shedding instead of
// unbounded queue growth).
var ErrOverloaded = errors.New("serve: queue full")

// errLaneFull sheds a submission whose lane is at its cap while its
// class still has room; it unwraps to ErrOverloaded.
var errLaneFull = fmt.Errorf("%w: lane queue is full", ErrOverloaded)

// ErrDraining is returned once the scheduler has begun draining; the
// server translates it to 503 (the daemon is shutting down).
var ErrDraining = errors.New("serve: draining")

// classCaps bounds one class.
type classCaps struct {
	running int // entries executing at once
	queued  int // entries waiting, across all lanes
	lane    int // entries waiting in any one lane
}

// classGauges is a point-in-time view of one class.
type classGauges struct {
	queued, running, workers int
}

type schedClass struct {
	caps    classCaps
	running int
	queued  int
	lanes   map[string][]*entry // lane -> FIFO of waiting entries
	ring    []string            // lanes with waiting entries, in service order
	next    int                 // ring cursor
}

// entry is one submitted unit of work.
type entry struct {
	ctx   context.Context
	fn    func(context.Context)
	class *schedClass
	lane  string
	// waiting is true while the entry sits in its lane.  Guarded by
	// scheduler.mu.
	waiting bool
	// done closes once fn has returned, or once the entry left the
	// queue without running; err then says why it never ran.
	done chan struct{}
	err  error
}

type scheduler struct {
	mu       sync.Mutex
	classes  []*schedClass
	draining bool
	wg       sync.WaitGroup // admitted entries not yet finished
}

// newScheduler builds a scheduler with one class per caps argument;
// classes are addressed by their index.
func newScheduler(caps ...classCaps) *scheduler {
	s := &scheduler{}
	for _, c := range caps {
		s.classes = append(s.classes, &schedClass{caps: c, lanes: make(map[string][]*entry)})
	}
	return s
}

// admit reports whether class could take an entry in lane now: nil,
// ErrDraining, ErrOverloaded (the class queue is full) or errLaneFull.
func (s *scheduler) admit(class int, lane string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admitLocked(s.classes[class], lane)
}

func (s *scheduler) admitLocked(c *schedClass, lane string) error {
	switch {
	case s.draining:
		return ErrDraining
	case c.running < c.caps.running:
		return nil // runs at once
	case c.queued >= c.caps.queued:
		return ErrOverloaded
	case len(c.lanes[lane]) >= c.caps.lane:
		return errLaneFull
	}
	return nil
}

// submit admits fn to class and lane, or sheds it with admit's error.
// fn runs with ctx once a running slot is free, unless ctx expires
// first; an already expired ctx is refused with its error.
func (s *scheduler) submit(ctx context.Context, class int, lane string, fn func(context.Context)) (*entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.classes[class]
	if err := s.admitLocked(c, lane); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.enqueueLocked(ctx, c, lane, fn), nil
}

// enqueue is submit without the queued caps, for work that was
// admitted once already (jobs recovered from a journal).
func (s *scheduler) enqueue(ctx context.Context, class int, lane string, fn func(context.Context)) (*entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	return s.enqueueLocked(ctx, s.classes[class], lane, fn), nil
}

func (s *scheduler) enqueueLocked(ctx context.Context, c *schedClass, lane string, fn func(context.Context)) *entry {
	e := &entry{ctx: ctx, fn: fn, class: c, lane: lane, done: make(chan struct{})}
	s.wg.Add(1)
	if c.running < c.caps.running {
		c.running++
		go s.run(e)
		return e
	}
	if len(c.lanes[lane]) == 0 {
		c.ring = append(c.ring, lane)
	}
	c.lanes[lane] = append(c.lanes[lane], e)
	c.queued++
	e.waiting = true
	return e
}

// do runs fn in class and lane and waits for it.  It returns the
// admission error, or ctx's error when ctx expired before fn started:
// the entry then leaves the queue at once instead of holding its slot.
// fn itself is expected to honor ctx for prompt cancellation mid-run.
func (s *scheduler) do(ctx context.Context, class int, lane string, fn func(context.Context)) error {
	e, err := s.submit(ctx, class, lane, fn)
	if err != nil {
		return err
	}
	select {
	case <-e.done:
	case <-ctx.Done():
		if s.remove(e) {
			return ctx.Err()
		}
		<-e.done
	}
	return e.err
}

// run executes e, then keeps its class's running slot for the next
// waiting entry until the class has none.
func (s *scheduler) run(e *entry) {
	c := e.class
	for e != nil {
		e.fn(e.ctx)
		s.mu.Lock()
		next := s.nextLocked(c)
		if next == nil {
			c.running--
		}
		s.mu.Unlock()
		close(e.done)
		s.wg.Done()
		e = next
	}
}

// nextLocked pops c's next waiting entry, round-robin across lanes.
// Entries whose context expired while they waited are finished with
// that error and never run.
func (s *scheduler) nextLocked(c *schedClass) *entry {
	for len(c.ring) > 0 {
		if c.next >= len(c.ring) {
			c.next = 0
		}
		e := c.lanes[c.ring[c.next]][0]
		if c.unlinkLocked(e) {
			c.next++ // the lane still waits; serve the next lane first
		}
		if err := e.ctx.Err(); err != nil {
			s.finishLocked(e, err)
			continue
		}
		return e
	}
	return nil
}

// remove takes a still-waiting entry out of its lane, finishing it
// with context.Canceled.  It returns false once the entry has started
// (or already left the queue).
func (s *scheduler) remove(e *entry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e == nil || !e.waiting {
		return false
	}
	e.class.unlinkLocked(e)
	s.finishLocked(e, context.Canceled)
	return true
}

func (s *scheduler) finishLocked(e *entry, err error) {
	e.err = err
	close(e.done)
	s.wg.Done()
}

// unlinkLocked takes e out of its lane, dropping the lane from the ring
// when it empties.  It reports whether the lane still has entries.
func (c *schedClass) unlinkLocked(e *entry) bool {
	e.waiting = false
	c.queued--
	q := c.lanes[e.lane]
	i := slices.Index(q, e)
	q = slices.Delete(q, i, i+1)
	if len(q) > 0 {
		c.lanes[e.lane] = q
		return true
	}
	delete(c.lanes, e.lane)
	r := slices.Index(c.ring, e.lane)
	c.ring = slices.Delete(c.ring, r, r+1)
	if r < c.next {
		c.next--
	}
	return false
}

// gauges reports one class's queue depth, running entries and running
// cap.
func (s *scheduler) gauges(class int) classGauges {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.classes[class]
	return classGauges{queued: c.queued, running: c.running, workers: c.caps.running}
}

// close drains the scheduler: new submissions fail with ErrDraining,
// waiting entries still run (or are skipped once their context
// expires), and close returns when every admitted entry has finished.
// Safe to call more than once.
func (s *scheduler) close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.wg.Wait()
}
