package sweep

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/pdn"
)

// cacheKey identifies a (PDN kind, scenario) pair. pdn.Scenario is an
// array-backed value type whose representation is canonical (an absent and
// an idle domain are the same zero Load), so the scenario itself is the key
// — no normalization pass is needed and two keys are equal iff the PDN
// models cannot tell the scenarios apart.
type cacheKey struct {
	kind pdn.Kind
	s    pdn.Scenario
}

// cacheShards spreads the key space over independently locked maps so
// concurrent readers don't serialize on one lock; 64 shards keeps the
// per-shard collision probability negligible for GOMAXPROCS-sized pools.
const cacheShards = 64

// cacheShard is one lock-striped slice of the key space. Reads take only
// the shard's RLock, so cache hits — the overwhelming majority of accesses
// once the figure grids warm up — proceed in parallel; writers touch one
// shard and never block readers of the other 63.
type cacheShard struct {
	mu      sync.RWMutex
	entries map[cacheKey]*cacheEntry
}

// Cache memoizes pdn.Model evaluations keyed by (kind, scenario), deduping
// the many repeated Evaluate calls the figures share (the same TDP
// scenarios recur across fig2b, fig4, fig5, fig8 and the observations).
//
// It is safe for concurrent use; when several workers request the same key
// the model evaluates once and the rest share the outcome, error included.
// Because one Kind maps to one model per cache, keep one Cache per
// parameter set (an experiments.Env owns exactly one). Cached results are
// plain values — pdn.Result stores its rails in a value array — so a hit
// returns an independent copy and callers may do with it as they please.
type Cache struct {
	seed   maphash.Seed
	shards [cacheShards]cacheShard
	hits   atomic.Int64
	misses atomic.Int64
	size   atomic.Int64
}

// cacheEntry is one published evaluation slot, resolved by a
// creator-computes protocol: the Evaluate call that inserts the entry
// under the shard lock is the only one that ever invokes the model for
// its key; it stores res/err and closes done, and every other caller —
// a scalar Evaluate or one point of a cached EvaluateGrid alike — blocks
// on done and reads the published result. The close gives the
// happens-before edge. A caller claims at most one entry at a time and
// resolves it before it waits on another, so waits cannot deadlock.
type cacheEntry struct {
	done chan struct{}
	res  pdn.Result
	err  error
}

func newCacheEntry() *cacheEntry { return &cacheEntry{done: make(chan struct{})} }

// NewCache returns an empty evaluation cache.
func NewCache() *Cache {
	c := &Cache{seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].entries = make(map[cacheKey]*cacheEntry)
	}
	return c
}

// shardFor picks the shard holding key. cacheKey contains no pointers,
// so maphash.Comparable hashes it without allocating.
func (c *Cache) shardFor(key cacheKey) *cacheShard {
	return &c.shards[maphash.Comparable(c.seed, key)%cacheShards]
}

// Evaluate returns m.Evaluate(s) memoized by (m.Kind(), s). A nil cache
// evaluates directly.
func (c *Cache) Evaluate(m pdn.Model, s pdn.Scenario) (pdn.Result, error) {
	if c == nil {
		return m.Evaluate(s)
	}
	key := cacheKey{kind: m.Kind(), s: s}
	sh := c.shardFor(key)
	sh.mu.RLock()
	e, ok := sh.entries[key]
	sh.mu.RUnlock()
	if !ok {
		sh.mu.Lock()
		e, ok = sh.entries[key]
		if !ok {
			e = newCacheEntry()
			sh.entries[key] = e
			c.size.Add(1)
		}
		sh.mu.Unlock()
	}
	if ok {
		c.hits.Add(1)
		// Another Evaluate call claimed the key; wait for its published
		// result instead of computing a duplicate.
		<-e.done
		return e.res, e.err
	}
	c.misses.Add(1)
	e.res, e.err = m.Evaluate(s)
	close(e.done)
	return e.res, e.err
}

// Reset drops every cached entry (the admin cache-flush path) and returns
// how many keys were removed. In-flight evaluations holding entry pointers
// complete unaffected; hit/miss counters stay monotone.
func (c *Cache) Reset() int {
	if c == nil {
		return 0
	}
	removed := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		removed += len(sh.entries)
		sh.entries = make(map[cacheKey]*cacheEntry)
		sh.mu.Unlock()
	}
	c.size.Add(int64(-removed))
	return removed
}

// Stats reports how many Evaluate calls hit and missed the cache.
func (c *Cache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of distinct (kind, scenario) keys stored.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return int(c.size.Load())
}

// cachedModel routes Evaluate through a Cache.
type cachedModel struct {
	inner pdn.Model
	cache *Cache
}

// Cached wraps m so every Evaluate is memoized by c; Kind is forwarded.
// A nil cache returns m unchanged. Do not hand a cached model to callers
// that evaluate perturbed one-off scenarios (refmodel.Measure) — each
// perturbation would occupy a cache entry for no reuse.
func Cached(m pdn.Model, c *Cache) pdn.Model {
	if c == nil {
		return m
	}
	return cachedModel{inner: m, cache: c}
}

func (cm cachedModel) Kind() pdn.Kind { return cm.inner.Kind() }

func (cm cachedModel) Evaluate(s pdn.Scenario) (pdn.Result, error) {
	return cm.cache.Evaluate(cm.inner, s)
}
