package serve

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

func testKey(n byte) Key {
	var k Key
	k[0] = n
	return k
}

func TestCacheHitMissCounters(t *testing.T) {
	c := NewCache(1 << 20)
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(testKey(1), []byte("body"))
	got, ok := c.Get(testKey(1))
	if !ok || !bytes.Equal(got, []byte("body")) {
		t.Fatalf("get after put: %q, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit, 1 miss, 1 entry", st)
	}
}

// TestCacheEviction fills past the byte budget and checks the
// least-recently-used entries go first.
func TestCacheEviction(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 100)
	cost := int64(len(body)) + entryOverhead
	c := NewCache(3 * cost) // room for exactly three entries

	for n := byte(0); n < 3; n++ {
		c.Put(testKey(n), body)
	}
	if st := c.Stats(); st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("prefill stats %+v", st)
	}

	// Touch 0 so 1 is the LRU entry, then overflow.
	c.Get(testKey(0))
	c.Put(testKey(3), body)

	st := c.Stats()
	if st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("post-evict stats %+v, want 3 entries, 1 eviction", st)
	}
	if st.Bytes > 3*cost {
		t.Fatalf("bytes %d over budget %d", st.Bytes, 3*cost)
	}
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("LRU entry 1 survived eviction")
	}
	for _, n := range []byte{0, 2, 3} {
		if _, ok := c.Get(testKey(n)); !ok {
			t.Fatalf("entry %d was evicted, want only entry 1 gone", n)
		}
	}
}

func TestCacheRejectsOversized(t *testing.T) {
	c := NewCache(64)
	c.Put(testKey(1), bytes.Repeat([]byte("x"), 1024))
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized body cached: %+v", st)
	}
}

func TestCacheDuplicatePut(t *testing.T) {
	c := NewCache(1 << 20)
	c.Put(testKey(1), []byte("body"))
	c.Put(testKey(1), []byte("body")) // same content address, same bytes
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("duplicate put created %d entries", st.Entries)
	}
	if want := int64(4) + entryOverhead; st.Bytes != want {
		t.Fatalf("bytes %d, want %d (no double count)", st.Bytes, want)
	}
}

func TestFlightGroupSharing(t *testing.T) {
	var g flightGroup
	const n = 8
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	runs := 0

	var wg sync.WaitGroup
	shared := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, sh, _ := g.Do(testKey(1), "", func() flightResult {
				once.Do(func() { close(entered) })
				runs++
				<-release
				return flightResult{status: 200, body: []byte("shared")}
			})
			shared[i] = sh
			if res.status != 200 || string(res.body) != "shared" {
				t.Errorf("goroutine %d: got %d %q", i, res.status, res.body)
			}
		}(i)
	}
	<-entered
	time.Sleep(20 * time.Millisecond) // let the others reach the flight
	close(release)
	wg.Wait()

	if runs != 1 {
		t.Fatalf("fn ran %d times, want 1", runs)
	}
	leaders := 0
	for _, sh := range shared {
		if !sh {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1", leaders)
	}

	// The flight is forgotten after completion: a later call runs fresh.
	fresh := false
	g.Do(testKey(1), "", func() flightResult {
		fresh = true
		return flightResult{}
	})
	if !fresh {
		t.Fatal("completed flight was not forgotten")
	}
}

func TestLoadReportString(t *testing.T) {
	rep := &LoadReport{
		Requests: 10,
		ByStatus: map[int]int64{200: 9, 429: 1},
		ByCache:  map[string]int64{"hit": 5, "miss": 4},
		Elapsed:  2 * time.Second,
		P50:      time.Millisecond,
		P95:      2 * time.Millisecond,
		P99:      3 * time.Millisecond,
		Max:      4 * time.Millisecond,
	}
	s := rep.String()
	for _, want := range []string{"status 200: 9", "status 429: 1", "hit", "p50 1ms"} {
		if !contains(s, want) {
			t.Errorf("report missing %q in:\n%s", want, s)
		}
	}
	if rep.RPS() != 5 {
		t.Fatalf("RPS = %g, want 5", rep.RPS())
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

func TestMissProgramUnique(t *testing.T) {
	seen := map[string]bool{}
	for n := int64(0); n < 100; n++ {
		src := missProgram(n)
		if seen[src] {
			t.Fatalf("missProgram(%d) repeats", n)
		}
		seen[src] = true
	}
}
