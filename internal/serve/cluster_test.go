package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wmstream/internal/cluster"
	"wmstream/internal/obs"

	"context"
)

// The in-process cluster harness: N full Servers, each fronted by an
// httptest listener, wired into one consistent-hash cluster.  The
// chicken-and-egg between "peer addresses exist only after the
// listeners start" and "a Server needs its Cluster at construction"
// is broken by a swappable handler: listeners come up first answering
// 503, then the real Servers are built against the now-known peer
// list and swapped in.

type swapHandler struct{ h atomic.Value }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.h.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "not ready", http.StatusServiceUnavailable)
}

type clusterNode struct {
	id  string
	srv *Server
	ts  *httptest.Server
	cl  *cluster.Cluster
}

type testCluster struct {
	nodes []*clusterNode

	mu       sync.Mutex
	compiles map[Key]int    // per-key executions, cluster-wide
	byNode   map[string]int // per-node executions
}

// newTestCluster brings up an n-node cluster.  mutate, when non-nil,
// adjusts one node's Config before construction (e.g. a short
// RequestTimeout on the front node of the deadline test).
func newTestCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) *testCluster {
	t.Helper()
	tc := &testCluster{
		compiles: make(map[Key]int),
		byNode:   make(map[string]int),
	}
	swaps := make([]*swapHandler, n)
	peers := make([]cluster.Peer, n)
	for i := 0; i < n; i++ {
		swaps[i] = &swapHandler{}
		ts := httptest.NewServer(swaps[i])
		t.Cleanup(ts.Close)
		peers[i] = cluster.Peer{ID: fmt.Sprintf("n%d", i), Addr: ts.URL}
		tc.nodes = append(tc.nodes, &clusterNode{id: peers[i].ID, ts: ts})
	}
	for i := 0; i < n; i++ {
		cl, err := cluster.New(cluster.Config{Self: peers[i].ID, Peers: peers})
		if err != nil {
			t.Fatalf("cluster.New: %v", err)
		}
		id := peers[i].ID
		cfg := Config{
			Cluster: cl,
			CompileHook: func(key Key) {
				tc.mu.Lock()
				tc.compiles[key]++
				tc.byNode[id]++
				tc.mu.Unlock()
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv := New(cfg)
		swaps[i].h.Store(http.Handler(srv))
		tc.nodes[i].srv, tc.nodes[i].cl = srv, cl
		t.Cleanup(srv.Close)
		t.Cleanup(cl.Close)
	}
	return tc
}

// compileCount reads one key's cluster-wide execution count.
func (tc *testCluster) compileCount(key Key) int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.compiles[key]
}

// owner is the cluster-wide ownership decision for a request (all
// nodes agree, so any view answers).
func (tc *testCluster) owner(kind string, req *Request) string {
	key := req.cacheKey(kind)
	return tc.nodes[0].cl.Route(key[:]).ID
}

// requestOwnedBy searches the unique-program space for a run request
// whose content address lands on the wanted node.
func (tc *testCluster) requestOwnedBy(t *testing.T, kind, want string, salt int64) *Request {
	t.Helper()
	for n := int64(0); n < 4096; n++ {
		req := &Request{Source: missProgram(salt<<16 | n), Level: intp(2)}
		if tc.owner(kind, req) == want {
			return req
		}
	}
	t.Fatalf("no request owned by %s in 4096 candidates", want)
	return nil
}

type clusterReply struct {
	status   int
	cache    string // X-Cache
	node     string // X-WM-Node: who executed
	degraded string // X-WM-Degraded
	trace    string // X-WM-Trace-Id
	body     []byte
}

func (tc *testCluster) post(t *testing.T, nodeIdx int, endpoint string, req *Request, hdr http.Header) clusterReply {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	hreq, err := http.NewRequest(http.MethodPost, tc.nodes[nodeIdx].ts.URL+endpoint, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, vs := range hdr {
		for _, v := range vs {
			hreq.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("POST %s via %s: %v", endpoint, tc.nodes[nodeIdx].id, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return clusterReply{
		status:   resp.StatusCode,
		cache:    resp.Header.Get("X-Cache"),
		node:     resp.Header.Get("X-WM-Node"),
		degraded: resp.Header.Get("X-WM-Degraded"),
		trace:    resp.Header.Get("X-WM-Trace-Id"),
		body:     b,
	}
}

// get fetches a URL from one node and returns status plus body.
func (tc *testCluster) get(t *testing.T, nodeIdx int, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(tc.nodes[nodeIdx].ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s via %s: %v", path, tc.nodes[nodeIdx].id, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// sumMetric sums every sample of a counter family whose label string
// contains all the given substrings.
func sumMetric(body []byte, name string, contains ...string) int64 {
	var total int64
scan:
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue // a different family sharing the prefix
		}
		for _, c := range contains {
			if !strings.Contains(rest, c) {
				continue scan
			}
		}
		fields := strings.Fields(rest)
		v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			continue
		}
		total += v
	}
	return total
}

// TestClusterByteIdenticalAnyEntryNode: the same request through every
// entry node returns the same bytes, executed by the one owning node,
// and is compiled exactly once cluster-wide.
func TestClusterByteIdenticalAnyEntryNode(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	for i, kind := range []string{kindCompile, kindRun, kindRun} {
		req := &Request{Source: missProgram(int64(7000 + i)), Level: intp(3)}
		owner := tc.owner(kind, req)
		key := req.cacheKey(kind)

		var bodies [][]byte
		for entry := range tc.nodes {
			rep := tc.post(t, entry, "/"+kind, req, nil)
			if rep.status != http.StatusOK {
				t.Fatalf("%s via %s: status %d, body %s", kind, tc.nodes[entry].id, rep.status, rep.body)
			}
			if rep.node != owner {
				t.Fatalf("%s via %s: executed on %q, ring owner is %q", kind, tc.nodes[entry].id, rep.node, owner)
			}
			if rep.degraded != "" {
				t.Fatalf("%s via %s: unexpected degraded marker %q", kind, tc.nodes[entry].id, rep.degraded)
			}
			bodies = append(bodies, rep.body)
		}
		for n := 1; n < len(bodies); n++ {
			if !bytes.Equal(bodies[0], bodies[n]) {
				t.Fatalf("%s: entry node %d returned different bytes:\n%s\nvs\n%s", kind, n, bodies[0], bodies[n])
			}
		}
		if got := tc.compileCount(key); got != 1 {
			t.Fatalf("%s key %s: compiled %d times across the cluster, want 1", kind, key, got)
		}
	}
}

// TestClusterCompileOnceUnderConcurrency: 64 concurrent clients spread
// over all three entry nodes, hammering a small set of unique keys;
// ownership plus the owner's singleflight must collapse every key to
// exactly one execution.
func TestClusterCompileOnceUnderConcurrency(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	const unique = 8
	reqs := make([]*Request, unique)
	keys := make([]Key, unique)
	for i := range reqs {
		reqs[i] = &Request{Source: missProgram(int64(9100 + i)), Level: intp(2)}
		keys[i] = reqs[i].cacheKey(kindRun)
	}

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		got    = make(map[int][][]byte) // request index -> bodies seen
		failed atomic.Int64
	)
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for n := 0; n < 4; n++ {
				ri := rng.Intn(unique)
				rep := tc.post(t, rng.Intn(len(tc.nodes)), "/run", reqs[ri], nil)
				if rep.status != http.StatusOK {
					failed.Add(1)
					continue
				}
				mu.Lock()
				got[ri] = append(got[ri], rep.body)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d requests failed", n)
	}
	for ri, bodies := range got {
		for n := 1; n < len(bodies); n++ {
			if !bytes.Equal(bodies[0], bodies[n]) {
				t.Fatalf("request %d: divergent bodies under concurrency", ri)
			}
		}
	}
	total := 0
	for i, key := range keys {
		c := tc.compileCount(key)
		if c != 1 {
			t.Errorf("key %d (%s): compiled %d times, want exactly 1", i, key, c)
		}
		total += c
	}
	if total != unique {
		t.Fatalf("total executions %d != unique keys %d", total, unique)
	}
}

// TestClusterOwnerDownDegrades: with the owning node dead, entry nodes
// fall back to local execution — marked degraded, still 200, still
// byte-identical everywhere — and service continues for keys owned by
// live nodes.
func TestClusterOwnerDownDegrades(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	victim := 2
	req := tc.requestOwnedBy(t, kindRun, "n2", 11)
	tc.nodes[victim].ts.Close()
	tc.nodes[victim].srv.Close()

	// First request from n0: the forward fails in transport, the peer is
	// passively marked down, and the request degrades to local.
	rep0 := tc.post(t, 0, "/run", req, nil)
	if rep0.status != http.StatusOK {
		t.Fatalf("degraded request: status %d, body %s", rep0.status, rep0.body)
	}
	if rep0.degraded == "" || !strings.Contains(rep0.degraded, "n2") {
		t.Fatalf("degraded request: X-WM-Degraded = %q, want owner n2 marker", rep0.degraded)
	}
	if rep0.node != "n0" {
		t.Fatalf("degraded request executed on %q, want local n0", rep0.node)
	}
	if tc.nodes[0].cl.PeerUp("n2") {
		t.Fatal("n2 still believed up after a failed forward")
	}

	// Second request from n0: the owner is already known down, so no
	// forward is attempted and the locally cached degraded body serves.
	rep0b := tc.post(t, 0, "/run", req, nil)
	if rep0b.status != http.StatusOK || rep0b.cache != "hit" {
		t.Fatalf("second degraded request: status %d cache %q, want 200 hit", rep0b.status, rep0b.cache)
	}

	// A different entry node degrades independently to identical bytes:
	// responses are a pure function of the content address.
	rep1 := tc.post(t, 1, "/run", req, nil)
	if rep1.status != http.StatusOK || rep1.degraded == "" {
		t.Fatalf("degraded via n1: status %d degraded %q", rep1.status, rep1.degraded)
	}
	if !bytes.Equal(rep0.body, rep1.body) {
		t.Fatalf("degraded fallbacks diverged:\n%s\nvs\n%s", rep0.body, rep1.body)
	}

	// Keys owned by live nodes still route normally.
	alive := tc.requestOwnedBy(t, kindRun, "n1", 12)
	repA := tc.post(t, 0, "/run", alive, nil)
	if repA.status != http.StatusOK || repA.node != "n1" || repA.degraded != "" {
		t.Fatalf("live-owner request: status %d node %q degraded %q", repA.status, repA.node, repA.degraded)
	}

	// The down outcome is visible in the entry node's metrics.
	_, metrics := tc.get(t, 0, "/metrics")
	if sumMetric(metrics, "wmserved_cluster_forwards_total", `peer="n2"`, `outcome="error"`) == 0 {
		t.Fatal("no forwards{n2,error} recorded for the failed forward")
	}
	if sumMetric(metrics, "wmserved_cluster_forwards_total", `peer="n2"`, `outcome="down"`) == 0 {
		t.Fatal("no forwards{n2,down} recorded for the known-down degrade")
	}
	if sumMetric(metrics, "wmserved_cluster_peer_up", `peer="n2"`) != 0 {
		t.Fatal("peer_up{n2} still 1 on /metrics")
	}
}

// TestClusterForwardPropagatesDeadline: the front node's deadline caps
// the owner's execution budget, so the owner returns the 504 (relayed
// verbatim) instead of burning its own full timeout.
func TestClusterForwardPropagatesDeadline(t *testing.T) {
	tc := newTestCluster(t, 3, func(i int, cfg *Config) {
		if i == 0 {
			cfg.RequestTimeout = 30 * time.Millisecond
		}
	})
	req := tc.requestOwnedBy(t, kindRun, "n1", 13)
	// A simulation far too long for 30ms (but trivial next to the
	// owner's own 30s default, which must NOT be the budget used).
	req.Source = strings.Replace(heavyJobProgram(0), "300000", "200000000", 1)
	if owner := tc.owner(kindRun, req); owner != "n1" {
		// The source swap moved the key; find a heavy variant owned by n1.
		for n := int64(0); ; n++ {
			req.Source = fmt.Sprintf(`int main(void) { int i; double s; s = %d.0; for (i = 0; i < 200000000; i++) s = s + i * 0.5; putd(s); return 0; }`, n)
			if tc.owner(kindRun, req) == "n1" {
				break
			}
		}
	}

	start := time.Now()
	rep := tc.post(t, 0, "/run", req, nil)
	elapsed := time.Since(start)
	if rep.status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (body %s), want 504 from the propagated deadline", rep.status, rep.body)
	}
	if rep.node != "n1" {
		t.Fatalf("executed on %q, want the owner n1 to time out, not a local fallback", rep.node)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("took %v: the owner used its own 30s budget, not the propagated one", elapsed)
	}
	// The forward itself succeeded — the 504 is the owner's answer, not
	// a transport failure.
	_, metrics := tc.get(t, 0, "/metrics")
	if sumMetric(metrics, "wmserved_cluster_forwards_total", `peer="n1"`, `outcome="ok"`) == 0 {
		t.Fatal("no forwards{n1,ok}: the 504 was not a relayed owner response")
	}
}

// TestClusterTraceAcrossForward: one trace ID spans both hops — the
// front node records the cluster.forward span, the owner continues the
// same trace with the origin peer attributed.
func TestClusterTraceAcrossForward(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	req := tc.requestOwnedBy(t, kindRun, "n2", 14)

	tid, sid := obs.NewTraceID(), obs.NewSpanID()
	hdr := http.Header{}
	hdr.Set("traceparent", obs.FormatTraceparent(tid, sid, true))
	rep := tc.post(t, 0, "/run", req, hdr)
	if rep.status != http.StatusOK {
		t.Fatalf("status %d, body %s", rep.status, rep.body)
	}
	if rep.trace != tid.String() {
		t.Fatalf("front node answered trace %q, want the client's %q", rep.trace, tid)
	}

	// Traces finish just after the response body is written; poll
	// briefly for both nodes to retain theirs.
	fetch := func(nodeIdx int) []byte {
		deadline := time.Now().Add(2 * time.Second)
		for {
			status, body := tc.get(t, nodeIdx, "/debug/traces/"+tid.String())
			if status == http.StatusOK {
				return body
			}
			if time.Now().After(deadline) {
				t.Fatalf("trace %s never appeared on %s", tid, tc.nodes[nodeIdx].id)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	front := fetch(0)
	if !bytes.Contains(front, []byte("cluster.forward")) {
		t.Fatalf("front trace has no cluster.forward span:\n%s", front)
	}
	if !bytes.Contains(front, []byte(`"peer": "n2"`)) {
		t.Fatalf("front trace's forward span not attributed to n2:\n%s", front)
	}
	owner := fetch(2)
	if !bytes.Contains(owner, []byte(`"peer": "n0"`)) {
		t.Fatalf("owner trace not attributed to forwarding peer n0:\n%s", owner)
	}
	if !bytes.Contains(owner, []byte(`"compile"`)) {
		t.Fatalf("owner trace missing the execution spans:\n%s", owner)
	}
}

// TestClusterHealthAndReconciliation: the cluster views exported by
// /healthz, /metrics, and /debug/statusz agree with each other — the
// owned fractions tile the key space, every peer is up, and the
// cluster-wide forward counters reconcile: every forward one node
// counted "ok" was counted "forwarded in" by exactly one peer.
func TestClusterHealthAndReconciliation(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	rng := rand.New(rand.NewSource(42))
	for n := 0; n < 24; n++ {
		req := &Request{Source: missProgram(int64(15000 + n)), Level: intp(rng.Intn(4))}
		kind := kindCompile
		if n%2 == 0 {
			kind = kindRun
		}
		if rep := tc.post(t, rng.Intn(3), "/"+kind, req, nil); rep.status != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", n, rep.status, rep.body)
		}
	}

	var fracSum float64
	var forwardsOK, forwardedIn int64
	for i, node := range tc.nodes {
		status, body := tc.get(t, i, "/healthz")
		if status != http.StatusOK {
			t.Fatalf("%s /healthz: status %d", node.id, status)
		}
		var h HealthResponse
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("%s /healthz: %v", node.id, err)
		}
		if h.Cluster == nil {
			t.Fatalf("%s /healthz has no cluster section", node.id)
		}
		if h.Cluster.Self != node.id || h.Cluster.Nodes != 3 || len(h.Cluster.Peers) != 2 {
			t.Fatalf("%s cluster view: %+v", node.id, h.Cluster)
		}
		if h.Cluster.PeersUp != 2 {
			t.Fatalf("%s sees %d peers up, want 2", node.id, h.Cluster.PeersUp)
		}
		fracSum += h.Cluster.OwnedFraction

		_, metrics := tc.get(t, i, "/metrics")
		if sumMetric(metrics, "wmserved_cluster_nodes") != 3 {
			t.Fatalf("%s /metrics: wmserved_cluster_nodes != 3", node.id)
		}
		if sumMetric(metrics, "wmserved_cluster_peer_up") != 2 {
			t.Fatalf("%s /metrics: peers_up sum != 2", node.id)
		}
		forwardsOK += sumMetric(metrics, "wmserved_cluster_forwards_total", `outcome="ok"`)
		forwardedIn += sumMetric(metrics, "wmserved_cluster_forwarded_in_total")

		status, statusz := tc.get(t, i, "/debug/statusz")
		if status != http.StatusOK || !bytes.Contains(statusz, []byte("Cluster")) {
			t.Fatalf("%s /debug/statusz missing cluster section (status %d)", node.id, status)
		}
	}
	if fracSum < 0.999 || fracSum > 1.001 {
		t.Fatalf("owned fractions sum to %v, want 1", fracSum)
	}
	if forwardsOK == 0 {
		t.Fatal("24 randomly owned requests produced no forwards at all")
	}
	if forwardsOK != forwardedIn {
		t.Fatalf("forward reconciliation broken: %d forwards ok != %d forwarded in", forwardsOK, forwardedIn)
	}
}

// TestLoadTargetSelection: the load generator's multi-endpoint policies
// — round-robin cycles; key affinity pins a program to one node.
func TestLoadTargetSelection(t *testing.T) {
	urls := []string{"http://a", "http://b", "http://c"}
	rr := &loadShard{urls: urls}
	seen := make(map[string]int)
	for n := 0; n < 9; n++ {
		seen[rr.target("src")]++
	}
	for _, u := range urls {
		if seen[u] != 3 {
			t.Fatalf("round-robin uneven: %v", seen)
		}
	}

	aff := &loadShard{urls: urls, affinity: "key"}
	first := aff.target("program-x")
	for n := 0; n < 5; n++ {
		if got := aff.target("program-x"); got != first {
			t.Fatalf("key affinity moved: %q then %q", first, got)
		}
	}
	single := &loadShard{urls: urls[:1]}
	if single.target("anything") != urls[0] {
		t.Fatal("single-URL mode must always pick the one URL")
	}
}

// TestRunLoadMultiEndpoint: a short multi-endpoint run against a live
// 3-node cluster reports per-node breakdowns and no failures.
func TestRunLoadMultiEndpoint(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	urls := make([]string, len(tc.nodes))
	for i, n := range tc.nodes {
		urls[i] = n.ts.URL
	}
	rep, err := RunLoad(context.Background(), LoadConfig{
		BaseURLs:    urls,
		Duration:    600 * time.Millisecond,
		Concurrency: 4,
		Retries:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if rep.Errors > 0 {
		t.Fatalf("%d transport errors against a healthy cluster", rep.Errors)
	}
	if len(rep.ByNode) != 3 {
		t.Fatalf("ByNode has %d entries, want 3: %+v", len(rep.ByNode), rep.ByNode)
	}
	var byNodeTotal int64
	for u, ns := range rep.ByNode {
		if ns.Requests == 0 {
			t.Fatalf("node %s received no traffic under round-robin", u)
		}
		if ns.Errors > 0 {
			t.Fatalf("node %s: %d errors", u, ns.Errors)
		}
		byNodeTotal += ns.Requests
	}
	if byNodeTotal != rep.Requests {
		t.Fatalf("per-node requests %d != total %d", byNodeTotal, rep.Requests)
	}
	out := rep.String()
	if !strings.Contains(out, "per node:") {
		t.Fatalf("report missing per-node section:\n%s", out)
	}
}

// TestClusterSoak is the CI cluster soak (set WMSERVE_CLUSTER_SOAK=1):
// sustained multi-endpoint load over a 3-node cluster, one node killed
// mid-run and dropped from the client rotation the way a load
// balancer's health checks would, with zero failed requests (degraded
// fallbacks allowed) and forward counters that reconcile.
func TestClusterSoak(t *testing.T) {
	if os.Getenv("WMSERVE_CLUSTER_SOAK") == "" {
		t.Skip("set WMSERVE_CLUSTER_SOAK=1 to run the cluster soak")
	}
	tc := newTestCluster(t, 3, nil)
	urls := make([]string, len(tc.nodes))
	for i, n := range tc.nodes {
		urls[i] = n.ts.URL
	}

	assertClean := func(phase string, rep *LoadReport) {
		t.Helper()
		if rep.Requests == 0 {
			t.Fatalf("%s: no requests completed", phase)
		}
		if rep.Errors > 0 {
			t.Fatalf("%s: %d transport errors", phase, rep.Errors)
		}
		for code, n := range rep.ByStatus {
			if code >= http.StatusInternalServerError {
				t.Fatalf("%s: %d responses with status %d", phase, n, code)
			}
		}
		t.Logf("%s: %d requests, %.0f req/s, p99 %v", phase, rep.Requests, rep.RPS(), rep.P99)
	}

	// Phase 1: all three nodes in rotation.
	rep1, err := RunLoad(context.Background(), LoadConfig{
		BaseURLs:    urls,
		Duration:    12 * time.Second,
		Concurrency: 16,
		Retries:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertClean("phase 1 (3 nodes)", rep1)

	// Every "ok" forward must have been counted "forwarded in" by its
	// owner.  The run's end cancels in-flight forwards after the owner
	// has already counted them, so forwardedIn may lead by at most one
	// per client goroutine.
	var forwardsOK, forwardedIn int64
	for i := range tc.nodes {
		_, metrics := tc.get(t, i, "/metrics")
		forwardsOK += sumMetric(metrics, "wmserved_cluster_forwards_total", `outcome="ok"`)
		forwardedIn += sumMetric(metrics, "wmserved_cluster_forwarded_in_total")
	}
	if forwardedIn < forwardsOK || forwardedIn-forwardsOK > 16 {
		t.Fatalf("reconciliation: %d forwards ok vs %d forwarded in", forwardsOK, forwardedIn)
	}
	if forwardsOK == 0 {
		t.Fatal("a 12s 3-node soak produced no forwards")
	}

	// Kill one node mid-run and drop it from the client rotation.
	tc.nodes[2].ts.Close()
	tc.nodes[2].srv.Close()

	rep2, err := RunLoad(context.Background(), LoadConfig{
		BaseURLs:    urls[:2],
		Duration:    12 * time.Second,
		Concurrency: 16,
		Retries:     5,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertClean("phase 2 (n2 killed)", rep2)

	// The survivors must have degraded n2-owned keys locally.
	var downDegrades int64
	for i := 0; i < 2; i++ {
		_, metrics := tc.get(t, i, "/metrics")
		downDegrades += sumMetric(metrics, "wmserved_cluster_forwards_total", `peer="n2"`)
	}
	if downDegrades == 0 {
		t.Fatal("no forwards/degrades attributed to the killed node")
	}
}
