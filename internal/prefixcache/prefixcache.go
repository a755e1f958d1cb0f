// Package prefixcache implements a shared-prefix KV cache in the spirit
// of SGLang's RadixAttention: requests carrying the same prompt prefix
// (system prompts, few-shot templates) reuse the prefix's KV cache
// instead of recomputing it, shrinking their effective prefill length.
//
// The cache pins one KV sequence per prefix group in the shared pool.
// Acquire pins a group against eviction while a request depends on it;
// unpinned groups are evicted LRU when the pool needs room. Bullet's
// prefill engine consults the cache at admission (core.Options
// EnablePrefixCache), turning a hit of H tokens into a prefill of
// length len-H with H tokens of attention history — exactly how a real
// radix cache changes the kernel shapes.
package prefixcache

import (
	"fmt"
	"sort"

	"repro/internal/kvcache"
)

// Cache manages prefix KV sequences in a shared pool. Single-threaded,
// like everything in the simulation.
type Cache struct {
	pool    *kvcache.Pool
	entries map[string]*entry
	clock   int64

	hits       int
	misses     int
	hitTokens  int64
	insertions int
	evictions  int
}

type entry struct {
	group    string
	tokens   int
	seq      *kvcache.Sequence
	pins     int
	lastUsed int64
}

// New creates a cache over the given pool.
func New(pool *kvcache.Pool) *Cache {
	return &Cache{pool: pool, entries: map[string]*entry{}}
}

// Stats summarises cache effectiveness.
type Stats struct {
	Hits       int
	Misses     int
	HitTokens  int64 // prefill tokens skipped thanks to hits
	Insertions int
	Evictions  int
	Resident   int
}

// Stats returns the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits: c.hits, Misses: c.misses, HitTokens: c.hitTokens,
		Insertions: c.insertions, Evictions: c.evictions, Resident: len(c.entries),
	}
}

// Acquire looks up a prefix group and pins it. It returns the cached
// token count (0 on miss) and a release function that must be called
// exactly once when the request no longer reads the prefix (i.e. at
// request completion — decode attention still reads it). On a miss the
// release function is a no-op.
func (c *Cache) Acquire(group string) (int, func()) {
	if group == "" {
		return 0, func() {}
	}
	c.clock++
	e, ok := c.entries[group]
	if !ok {
		c.misses++
		return 0, func() {}
	}
	c.hits++
	c.hitTokens += int64(e.tokens)
	e.pins++
	e.lastUsed = c.clock
	released := false
	return e.tokens, func() {
		if released {
			panic(fmt.Sprintf("prefixcache: double release of group %q", group))
		}
		released = true
		e.pins--
		if e.pins < 0 {
			panic(fmt.Sprintf("prefixcache: negative pin count for group %q", group))
		}
	}
}

// Insert caches a freshly computed prefix of tokens tokens for a group,
// evicting unpinned entries LRU if the pool is tight. Insert is a no-op
// if the group is already cached or if space cannot be found; it returns
// whether the prefix is now resident.
//
//bullet:hotpath-ignore runs once per finished prefill batch, and a new entry owns a pool sequence by design
func (c *Cache) Insert(group string, tokens int) bool {
	if group == "" || tokens <= 0 {
		return false
	}
	if _, ok := c.entries[group]; ok {
		return true
	}
	for !c.pool.CanAllocate(tokens) {
		if !c.evictOne() {
			return false
		}
	}
	seq, err := c.pool.Allocate("prefix/"+group, tokens, "prefix-cache")
	if err != nil {
		return false
	}
	c.clock++
	c.entries[group] = &entry{group: group, tokens: tokens, seq: seq, lastUsed: c.clock}
	c.insertions++
	return true
}

// evictOne removes the least-recently-used unpinned entry. It returns
// false when nothing is evictable.
func (c *Cache) evictOne() bool {
	// Scan in sorted group order: Go's randomized map iteration would
	// otherwise pick an arbitrary victim among entries tied on lastUsed,
	// leaking nondeterminism into hit rates and pool contents.
	groups := make([]string, 0, len(c.entries))
	for g := range c.entries {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	var victim *entry
	for _, g := range groups {
		e := c.entries[g]
		if e.pins > 0 {
			continue
		}
		if victim == nil || e.lastUsed < victim.lastUsed {
			victim = e
		}
	}
	if victim == nil {
		return false
	}
	c.pool.MustFree(victim.seq)
	delete(c.entries, victim.group)
	c.evictions++
	return true
}

// EvictAll drops every unpinned entry (end-of-run cleanup so pool
// invariants hold).
func (c *Cache) EvictAll() {
	for c.evictOne() {
	}
}

// PinnedGroups returns the currently pinned group names, sorted (for
// tests and diagnostics).
func (c *Cache) PinnedGroups() []string {
	var out []string
	for g, e := range c.entries {
		if e.pins > 0 {
			out = append(out, g)
		}
	}
	sort.Strings(out)
	return out
}

// ResidentTokens returns the total cached prefix tokens.
func (c *Cache) ResidentTokens() int {
	t := 0
	for _, e := range c.entries {
		t += e.tokens
	}
	return t
}
