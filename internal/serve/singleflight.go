package serve

import "sync"

// flightResult is the outcome one in-flight execution hands to every
// request coalesced onto it: an HTTP status and a fully rendered
// response body.  cached marks a leader that found the body already
// stored and executed nothing.
type flightResult struct {
	status int
	body   []byte
	cached bool
}

type flight struct {
	done   chan struct{}
	res    flightResult
	leader string // leader's trace ID, for followers' attach spans
}

// flightGroup coalesces concurrent requests for the same content
// address: the first caller for a key (the leader) runs fn, everyone
// arriving before it finishes blocks and shares the leader's result.
// The flight is forgotten before its result is published, so requests
// arriving after completion start fresh; the server fills its cache
// inside fn, so they hit the cache instead.
type flightGroup struct {
	mu      sync.Mutex
	flights map[Key]*flight
}

// Do returns fn's result for the key, executing fn at most once among
// concurrent callers.  shared is false for the leader that actually
// ran fn and true for coalesced waiters.  self is the caller's trace
// ID; followers get the leader's back, so their traces can point at
// the trace that actually holds the execution spans.
func (g *flightGroup) Do(k Key, self string, fn func() flightResult) (res flightResult, shared bool, leader string) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[Key]*flight)
	}
	if f, ok := g.flights[k]; ok {
		g.mu.Unlock()
		<-f.done
		return f.res, true, f.leader
	}
	f := &flight{done: make(chan struct{}), leader: self}
	g.flights[k] = f
	g.mu.Unlock()

	f.res = fn()

	g.mu.Lock()
	delete(g.flights, k)
	g.mu.Unlock()
	close(f.done)
	return f.res, false, self
}
