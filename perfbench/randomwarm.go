package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/remote"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// randomWarm is live-random-warm: each client reads 64 B at a seeded
// random offset of page after page, over a page set four times its cache.
// Each client walks its own seeded permutation of the pages, over and over;
// the set-up pass walks it once, so every measured read finds its page a
// whole permutation away, evicted: a real remote fault over a warm location
// cache. The op is one faulting Read; Read returns when the faulted
// subpage lands.
type randomWarm struct {
	opt          options
	pages, cache int
	readBytes    int

	cl      *cluster
	clients []*remote.Client
	perms   [][]uint64
	pos     []int
	rngs    []*rand.Rand
	offs    [][]int // fault offsets the traced half used, per client
}

func newRandomWarm(opt options) *randomWarm {
	w := &randomWarm{opt: opt, pages: 4096, cache: 1024, readBytes: 64}
	if opt.tiny {
		w.pages, w.cache = 256, 64
	}
	return w
}

func (w *randomWarm) describe() description {
	return description{
		sizes: map[string]any{"pages": w.pages, "cache_pages": w.cache, "clients": clients(),
			"read_bytes": w.readBytes, "subpage": subpageSize, "policy": "eager",
			"servers": liveServers, "dir_shards": liveShards},
		aliases: map[string]string{"op_p50_us": "fault_p50_us", "op_p90_us": "fault_p90_us",
			"rate_per_s": "faults_per_s"},
	}
}

func (w *randomWarm) setup(rep int) error {
	w.close()
	cl, err := startCluster(uint64(w.opt.seed), w.pages)
	if err != nil {
		return err
	}
	w.cl = cl
	n := clients()
	w.clients, w.perms, w.pos, w.rngs = nil, nil, make([]int, n), nil
	w.offs = make([][]int, n)
	for g := 0; g < n; g++ {
		c, err := cl.dial(w.cache, proto.PolicyEager)
		if err != nil {
			return err
		}
		w.clients = append(w.clients, c)
		rng := rand.New(rand.NewSource(w.opt.seed*1_000_003 + int64(g)))
		perm := make([]uint64, w.pages)
		for i, p := range rng.Perm(w.pages) {
			perm[i] = uint64(p)
		}
		w.perms = append(w.perms, perm)
		w.rngs = append(w.rngs, rng)
	}
	warm := w.run(time.Second, w.pages, nil)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d reads failed", warm.failed, warm.attempted)
	}
	return nil
}

func (w *randomWarm) measure(d time.Duration, rec *tracer) (*phase, error) {
	var before map[string]float64
	if rec != nil {
		before = w.cl.snapshot(w.clients)
		w.cl.wire.on.Store(true)
	}
	ph := w.run(d, 0, rec)
	if rec != nil {
		w.cl.wire.on.Store(false)
		ph.counters = delta(before, w.cl.snapshot(w.clients))
	}
	return ph, nil
}

// run drives every client for d, or for limit reads each when limit > 0.
func (w *randomWarm) run(d time.Duration, limit int, rec *tracer) *phase {
	var wg sync.WaitGroup
	phases := make([]*phase, len(w.clients))
	start := clock()
	for g := range w.clients {
		var ln *lane
		if rec != nil {
			ln = rec.lane()
		}
		wg.Add(1)
		go func(g int, ln *lane) {
			defer wg.Done()
			phases[g] = w.reader(g, start, d, limit, ln)
		}(g, ln)
	}
	wg.Wait()
	total := &phase{}
	for _, ph := range phases {
		total.merge(ph)
	}
	return total
}

func (w *randomWarm) reader(g int, start time.Time, d time.Duration, limit int, ln *lane) *phase {
	c, perm, rng := w.clients[g], w.perms[g], w.rngs[g]
	seed := uint64(w.opt.seed)
	buf := make([]byte, w.readBytes)
	ph := timed(d)
	for i := 0; ; i++ {
		if limit > 0 && i >= limit || limit == 0 && since(start) >= d {
			break
		}
		page := perm[w.pos[g]%len(perm)]
		w.pos[g]++
		off := rng.Intn(units.PageSize/w.readBytes) * w.readBytes
		t0 := clock()
		err := c.Read(buf, page*units.PageSize+uint64(off))
		t1 := clock()
		ph.attempted++
		end := int64(t1.Sub(start))
		switch {
		case err != nil:
			ph.fail(false, end)
		case !checkPattern(buf, seed, page, off):
			ph.fail(true, end)
		default:
			ph.checked++
			ph.done(t1.Sub(t0), end, 1)
		}
		if ln != nil {
			op := ln.op()
			root := ln.add(op, -1, "op.random_read", ln.t.at(t0), ln.t.now())
			ln.add(op, root, "remote.Client.Read", ln.t.at(t0), ln.t.at(t1))
			if len(w.offs[g]) < 4096 {
				w.offs[g] = append(w.offs[g], off)
			}
		}
	}
	return ph
}

func (w *randomWarm) layers(untraced, traced *phase, rec *tracer, m map[string]float64) error {
	var offs []int
	for _, o := range w.offs {
		offs = append(offs, o...)
	}
	if err := liveProbes(w.cl, m, w.cl.probePages(probeCount(w.opt)), offs, proto.PolicyEager, rec); err != nil {
		return err
	}
	// Every measured read faults, so the op latency is the fault latency.
	clientLayers(m, traced.counters, median(traced.lat))
	return nil
}

func (w *randomWarm) close() {
	for _, c := range w.clients {
		_ = c.Close() // teardown; nothing is dirty
	}
	w.clients = nil
	if w.cl != nil {
		w.cl.close()
		w.cl = nil
	}
}
