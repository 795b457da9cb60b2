package remote

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/gms-sim/gmsubpage/internal/memmodel"
)

// offlineClient is a Client with no network: every access inserts and
// touches its page, then returns errOffline before a fault could start. It
// drives the page cache alone — recency, pinning and eviction — with no
// directory or server behind it.
func offlineClient(cachePages int) *Client {
	c := &Client{
		cfg:     ClientConfig{CachePages: cachePages}.withDefaults(),
		cache:   make(map[uint64]*cpage),
		located: make(map[uint64][]string),
		reqs:    make(map[uint64]reqEntry),
		servers: make(map[string]*srvConn),
		closeCh: make(chan struct{}),
		met:     newClientMetrics(nil),
		netErr:  errOffline,
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

var errOffline = errors.New("offline test client")

// offlineAccess is one access to page: insert (evicting if full) and mark
// it most recently used. Called with c.mu held.
func offlineAccess(t testing.TB, c *Client, page uint64) {
	if _, err := c.ensureValid(page, 0, 1); !errors.Is(err, errOffline) {
		t.Fatalf("access to page %d: err %v, want the offline error", page, err)
	}
}

// lruOracle is the victim choice of the full-cache scan the recency list
// replaced: each access stamps its page with a rising tick, and a victim is
// the page with the smallest stamp that is neither in flight, nor owned by
// a fault, nor holding waiters.
type lruOracle struct {
	tick    int64
	lastUse map[uint64]int64
	pinned  map[uint64]bool
}

// evict applies the scan's loop to a cache of cap pages, returning the
// victims in order.
func (o *lruOracle) evict(capacity int) []uint64 {
	var victims []uint64
	for len(o.lastUse) >= capacity {
		var victim uint64
		found := false
		for id, use := range o.lastUse {
			if o.pinned[id] {
				continue
			}
			if !found || use < o.lastUse[victim] {
				victim, found = id, true
			}
		}
		if !found {
			break // everything pinned: the cache overcommits
		}
		delete(o.lastUse, victim)
		victims = append(victims, victim)
	}
	return victims
}

// access mirrors offlineAccess: evict only when the page is missing.
func (o *lruOracle) access(capacity int, page uint64) []uint64 {
	var victims []uint64
	if _, ok := o.lastUse[page]; !ok {
		victims = o.evict(capacity)
	}
	o.tick++
	o.lastUse[page] = o.tick
	return victims
}

// cachedPages lists the cache's page numbers in ascending order.
func cachedPages(c *Client) []uint64 {
	pages := make([]uint64, 0, len(c.cache))
	for id := range c.cache {
		pages = append(pages, id)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	return pages
}

func sameSet(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	x := append([]uint64(nil), a...)
	y := append([]uint64(nil), b...)
	sort.Slice(x, func(i, j int) bool { return x[i] < x[j] })
	sort.Slice(y, func(i, j int) bool { return y[i] < y[j] })
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// pin sets one of the three states that keep a page out of eviction,
// chosen by kind; unpin clears them all.
func pin(p *cpage, kind int) {
	switch kind {
	case 0:
		p.waiters++
	case 1:
		p.inflight = true
	default:
		p.faulting = true
	}
}

func unpin(p *cpage) {
	p.waiters, p.inflight, p.faulting = 0, false, false
}

// Every eviction picks the victim the full-cache min-lastUse scan would:
// the least recently used page that is not in flight, not owned by a fault
// and holding no waiters. A seeded mix of hits, misses, pins, unpins,
// dirty write-backs (the unlock-for-putPage handoff) and explicit
// evictions runs against the oracle at several cache sizes.
func TestEvictionMatchesLRUScanOracle(t *testing.T) {
	for _, capacity := range []int{1, 2, 64, 1024} {
		t.Run(fmt.Sprintf("cache%d", capacity), func(t *testing.T) {
			c := offlineClient(capacity)
			o := &lruOracle{lastUse: make(map[uint64]int64), pinned: make(map[uint64]bool)}
			rng := rand.New(rand.NewSource(int64(capacity)*7919 + 1))
			universe := uint64(2*capacity + 3)
			steps := 20000
			c.mu.Lock()
			defer c.mu.Unlock()
			for step := 0; step < steps; step++ {
				evictions := c.stats.Evictions
				var want []uint64
				page := uint64(rng.Int63n(int64(universe)))
				p := c.cache[page]
				switch r := rng.Intn(100); {
				case r < 70: // an access, hit or miss
					want = o.access(capacity, page)
					offlineAccess(t, c, page)
					if rng.Intn(4) == 0 {
						// A fully valid dirty page is written back on
						// eviction, which drops c.mu around putPage.
						p = c.cache[page]
						p.valid = memmodel.FullBitmap
						p.dirty = true
					}
				case r < 82: // pin a cached page
					if p != nil {
						pin(p, rng.Intn(3))
						o.pinned[page] = true
					}
				case r < 95: // unpin a cached page
					if p != nil {
						unpin(p)
						delete(o.pinned, page)
					}
				default: // an explicit eviction pass
					want = o.evict(capacity)
					c.evictIfFull()
				}
				// The cache and the oracle held the same pages before this
				// step, so the same victims leave both exactly when the
				// counts agree and every oracle victim is gone.
				if got := c.stats.Evictions - evictions; got != int64(len(want)) {
					t.Fatalf("step %d: %d evictions, the LRU scan makes %d (%v)", step, got, len(want), want)
				}
				for _, v := range want {
					if c.cache[v] != nil {
						t.Fatalf("step %d: page %d still cached, the LRU scan evicts %v", step, v, want)
					}
				}
				if len(c.cache) != len(o.lastUse) {
					t.Fatalf("step %d: cache holds %d pages, oracle %d", step, len(c.cache), len(o.lastUse))
				}
			}
			oracle := make([]uint64, 0, len(o.lastUse))
			for id := range o.lastUse {
				oracle = append(oracle, id)
			}
			if got := cachedPages(c); !sameSet(got, oracle) {
				t.Fatalf("final cache %v, oracle %v", got, oracle)
			}
			// The recency list holds exactly the cached pages, linked both
			// ways, most recent access first.
			n, last := 0, int64(math.MaxInt64)
			for p := c.mru; p != nil; p = p.next {
				if c.cache[p.page] != p {
					t.Fatalf("listed page %d is not the cached entry", p.page)
				}
				if (p.prev == nil) != (p == c.mru) || (p.next == nil) != (p == c.lru) ||
					(p.next != nil && p.next.prev != p) {
					t.Fatalf("page %d: broken links", p.page)
				}
				if use := o.lastUse[p.page]; use >= last {
					t.Fatalf("page %d listed after a less recent page", p.page)
				} else {
					last = use
				}
				n++
			}
			if n != len(c.cache) {
				t.Fatalf("recency list holds %d pages, cache %d", n, len(c.cache))
			}
		})
	}
}

// With every cached page pinned a miss overcommits by one page instead of
// evicting; once the pins drop, the next eviction pass brings the cache
// back under its size, least recently used first.
func TestEvictionOvercommitsWhenAllPinned(t *testing.T) {
	const capacity = 4
	c := offlineClient(capacity)
	c.mu.Lock()
	defer c.mu.Unlock()
	for page := uint64(0); page < capacity; page++ {
		offlineAccess(t, c, page)
	}
	for page := uint64(0); page < capacity; page++ {
		pin(c.cache[page], int(page)%3)
	}
	offlineAccess(t, c, capacity)
	if len(c.cache) != capacity+1 || c.stats.Evictions != 0 {
		t.Fatalf("all pinned: %d pages cached after %d evictions, want %d and 0",
			len(c.cache), c.stats.Evictions, capacity+1)
	}
	for page := uint64(0); page < capacity; page++ {
		unpin(c.cache[page])
	}
	c.evictIfFull()
	if got, want := cachedPages(c), []uint64{2, 3, 4}; !sameSet(got, want) {
		t.Fatalf("after unpinning: cached %v, want %v (pages 0 and 1 least recent)", got, want)
	}
}

// BenchmarkEvictIfFull times one miss on a full cache — pick a victim,
// recycle its buffer, insert and link the new page — at several cache
// sizes. The recency list makes the victim choice O(1), so ns/op stays flat
// as the cache grows.
func BenchmarkEvictIfFull(b *testing.B) {
	for _, capacity := range []int{64, 1024, 8192} {
		b.Run(fmt.Sprintf("cache%d", capacity), func(b *testing.B) {
			c := offlineClient(capacity)
			c.mu.Lock()
			defer c.mu.Unlock()
			for page := uint64(0); page < uint64(capacity); page++ {
				offlineAccess(b, c, page)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				offlineAccess(b, c, uint64(capacity+i))
			}
		})
	}
}
