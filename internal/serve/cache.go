package serve

import (
	"container/list"
	"sync"
)

// entryOverhead approximates the per-entry bookkeeping cost (map slot,
// list element, key copy) charged against the byte budget on top of
// the body itself, so a budget of N bytes really bounds memory at
// roughly N.
const entryOverhead = 160

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

type cacheEntry struct {
	key  Key
	body []byte
}

// Cache is the content-addressed compilation cache: Key -> serialized
// response body, with LRU eviction under a byte budget.  Bodies are
// stored and returned by reference and must be treated as immutable by
// all parties (the server only ever writes them to sockets).
//
// All methods are safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	lru    *list.List // front = most recently used; values are *cacheEntry
	items  map[Key]*list.Element

	hits, misses, evictions int64
}

// NewCache returns a cache bounded by budget bytes (bodies plus
// per-entry overhead).  A non-positive budget disables storage: every
// Get misses and Put is a no-op, which keeps the serving path uniform.
func NewCache(budget int64) *Cache {
	return &Cache{
		budget: budget,
		lru:    list.New(),
		items:  make(map[Key]*list.Element),
	}
}

// Get returns the cached body for the key, marking it most recently
// used.  The returned slice is shared: callers must not modify it.
func (c *Cache) Get(k Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// peek is Get without side effects: no LRU promotion and no hit or
// miss counted.  The serving path uses it to re-check for a body stored
// while it waited to lead a flight, after its counted Get missed.
func (c *Cache) peek(k Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).body, true
}

// Put stores the body under the key and evicts least-recently-used
// entries until the budget holds again.  A body that alone exceeds the
// budget is not stored (it would evict everything for one entry).
func (c *Cache) Put(k Key, body []byte) {
	cost := int64(len(body)) + entryOverhead
	c.mu.Lock()
	defer c.mu.Unlock()
	if cost > c.budget {
		return
	}
	if el, ok := c.items[k]; ok {
		// Concurrent fill of the same key (e.g. two flights separated
		// by an eviction): keep the existing entry, the bodies are
		// identical by the content-address guarantee.
		c.lru.MoveToFront(el)
		return
	}
	c.items[k] = c.lru.PushFront(&cacheEntry{key: k, body: body})
	c.bytes += cost
	for c.bytes > c.budget {
		back := c.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.body)) + entryOverhead
		c.evictions++
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   int64(c.lru.Len()),
		Bytes:     c.bytes,
	}
}
