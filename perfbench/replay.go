package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/remote"
	"github.com/gms-sim/gmsubpage/internal/trace"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// replayChunk is the op of live-replay: this many consecutive references.
const replayChunk = 1 << 16

// slowAccess is the duration past which a traced access is checked for
// having faulted; a local hit takes well under it.
const slowAccess = 2 * time.Microsecond

// liveReplay is live-replay: the paper's five application traces replayed
// through Client.Read and Client.Write, 8 B per reference, with a cache
// half each app's footprint and the pipelined policy. Each client owns one
// app's pages on the servers and replays it over and over, in a seeded
// app order per round; set-up replays every trace once to fill the
// caches. Almost every reference hits locally, so this is where a tax on
// every access shows. The op is a chunk of replayChunk references.
type liveReplay struct {
	opt   options
	scale float64

	apps    []*trace.App
	regions []appRegion
	genS    []float64

	cl    *cluster
	lanes [][]*replayer // [client][app]
	rngs  []*rand.Rand
}

// appRegion maps an app's sparse trace pages onto dense server pages.
type appRegion struct {
	app   *trace.App
	pages int
	dense []uint32 // trace page -> index within the region
}

// replayer is one client's replay of one app: the client, its page range
// on the servers, and a shadow of what those pages must hold.
type replayer struct {
	c      *remote.Client
	base   uint64
	shadow []byte
	stamp  uint64
	faults int64 // client fault count at the last traced check
}

func newReplay(opt options) *liveReplay {
	w := &liveReplay{opt: opt, scale: 0.02}
	if opt.tiny {
		w.scale = 0.005
	}
	return w
}

func (w *liveReplay) describe() description {
	return description{
		sizes: map[string]any{"apps": "modula3 ld atom render gdb", "scale": w.scale, "clients": clients(),
			"cache": "half of each app's footprint", "policy": "pipelined", "subpage": subpageSize,
			"access_bytes": 8, "chunk_refs": replayChunk, "servers": liveServers, "dir_shards": liveShards},
		aliases: map[string]string{"op_p50_us": "chunk_p50_us", "op_p90_us": "chunk_p90_us",
			"rate_per_s": "replay_refs_per_s"},
	}
}

func (w *liveReplay) setup(rep int) error {
	w.close()
	apps, gen := genTraces(w.scale, rep)
	w.genS = append(w.genS, gen)
	if rep == 0 {
		w.apps = apps
		w.regions = nil
		for _, a := range apps {
			touched := trace.TouchedPages(a)
			reg := appRegion{app: a, pages: len(touched), dense: make([]uint32, touched[len(touched)-1]+1)}
			for i, p := range touched {
				reg.dense[p] = uint32(i)
			}
			w.regions = append(w.regions, reg)
		}
	}
	n := clients()
	total := 0
	for _, reg := range w.regions {
		total += n * reg.pages
	}
	seed := uint64(w.opt.seed)
	cl, err := startCluster(seed, total)
	if err != nil {
		return err
	}
	w.cl = cl
	w.lanes = make([][]*replayer, n)
	w.rngs = make([]*rand.Rand, n)
	base := uint64(0)
	for g := 0; g < n; g++ {
		w.rngs[g] = rand.New(rand.NewSource(w.opt.seed*7_919 + int64(g)))
		for _, reg := range w.regions {
			cache := reg.pages / 2
			if cache < 2 {
				cache = 2
			}
			c, err := cl.dial(cache, proto.PolicyPipelined)
			if err != nil {
				return err
			}
			r := &replayer{c: c, base: base, shadow: make([]byte, reg.pages*units.PageSize),
				stamp: mix(seed ^ uint64(g)<<32 ^ base)}
			for i := 0; i < reg.pages; i++ {
				fillPattern(r.shadow[i*units.PageSize:(i+1)*units.PageSize], seed, base+uint64(i))
			}
			w.lanes[g] = append(w.lanes[g], r)
			base += uint64(reg.pages)
		}
	}
	// Fill every cache: each client replays each trace once.
	warm := w.run(0, true, nil)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d references failed", warm.failed, warm.attempted)
	}
	return nil
}

func (w *liveReplay) allClients() []*remote.Client {
	var cs []*remote.Client
	for _, lane := range w.lanes {
		for _, r := range lane {
			cs = append(cs, r.c)
		}
	}
	return cs
}

func (w *liveReplay) measure(d time.Duration, rec *tracer) (*phase, error) {
	before := w.cl.snapshot(w.allClients())
	if rec != nil {
		w.cl.wire.on.Store(true)
	}
	ph := w.run(d, false, rec)
	w.cl.wire.on.Store(false)
	ph.counters = delta(before, w.cl.snapshot(w.allClients()))
	return ph, nil
}

// run replays on every client until d has passed, or replays each trace
// once per client when once is set.
func (w *liveReplay) run(d time.Duration, once bool, rec *tracer) *phase {
	var wg sync.WaitGroup
	phases := make([]*phase, len(w.lanes))
	start := clock()
	for g := range w.lanes {
		var ln *lane
		if rec != nil {
			ln = rec.lane()
		}
		wg.Add(1)
		go func(g int, ln *lane) {
			defer wg.Done()
			phases[g] = w.replay(g, start, d, once, ln)
		}(g, ln)
	}
	wg.Wait()
	total := &phase{counters: make(map[string]float64)}
	for _, ph := range phases {
		total.merge(ph)
	}
	return total
}

// chunkState accumulates one op.
type chunkState struct {
	start  time.Time
	refs   int
	failed bool
	op     uint64
	root   int64
}

// replay is one client goroutine's closed loop.
func (w *liveReplay) replay(g int, start time.Time, d time.Duration, once bool, ln *lane) *phase {
	ph := timed(d)
	buf := make([]trace.Ref, 8192)
	word := make([]byte, 8)
	ch := chunkState{start: clock()}
	if ln != nil {
		ch.op = ln.op()
		ch.root = ln.add(ch.op, -1, "op.replay_chunk", ln.t.at(ch.start), 0)
		for _, r := range w.lanes[g] {
			r.faults = r.c.Stats().Faults
		}
	}
	order := make([]int, len(w.regions))
	for i := range order {
		order[i] = i
	}
	for done := false; !done; {
		if !once {
			order = w.rngs[g].Perm(len(w.regions))
		}
		for _, ai := range order {
			if done {
				break
			}
			reg, r := &w.regions[ai], w.lanes[g][ai]
			rd := reg.app.NewReader()
			for !done {
				var tr0 int64
				if ln != nil {
					tr0 = ln.t.now()
				}
				n := rd.Read(buf)
				if ln != nil {
					ln.add(ch.op, ch.root, "trace.Reader.Read", tr0, ln.t.now())
				}
				if n == 0 {
					break
				}
				for _, ref := range buf[:n] {
					tp := ref.Addr / units.PageSize
					idx := uint64(reg.dense[tp])
					off := ref.Addr % units.PageSize
					if off > units.PageSize-8 {
						off = units.PageSize - 8 // keep the 8-byte access inside the page
					}
					so := idx*units.PageSize + off
					addr := (r.base+idx)*units.PageSize + off
					var t0 time.Time
					if ln != nil {
						t0 = clock()
					}
					var err error
					if ref.Store {
						r.stamp++
						binary.LittleEndian.PutUint64(word, mix(r.stamp))
						if err = r.c.Write(word, addr); err == nil {
							copy(r.shadow[so:so+8], word)
						}
					} else if err = r.c.Read(word, addr); err == nil {
						if binary.LittleEndian.Uint64(word) != binary.LittleEndian.Uint64(r.shadow[so:]) {
							ph.mismatches++
							ph.failed++
							ch.failed = true
						}
						ph.checked++
					}
					if ln != nil {
						if dt := since(t0); dt > slowAccess {
							if f := r.c.Stats().Faults; f != r.faults {
								r.faults = f
								ph.faults = append(ph.faults, float64(dt)/1e3)
								ln.add(ch.op, ch.root, "remote.Client.access (fault)", ln.t.at(t0), ln.t.at(t0)+int64(dt))
							}
						}
					}
					ph.attempted++
					if err != nil {
						ph.failed++
						ch.failed = true
					}
					ch.refs++
					if ch.refs == replayChunk {
						w.endChunk(ph, &ch, start, ln)
						done = !once && since(start) >= d
						if done {
							break
						}
					}
				}
			}
		}
		if once {
			done = true
		}
	}
	if ln != nil {
		ln.end(ch.root, ln.t.now()) // the partial chunk the loop stopped in
	}
	return ph
}

// endChunk closes the current op and opens the next.
func (w *liveReplay) endChunk(ph *phase, ch *chunkState, start time.Time, ln *lane) {
	now := clock()
	if end := int64(now.Sub(start)); ch.failed {
		ph.miss(end) // the failed references are already counted
	} else {
		ph.done(now.Sub(ch.start), end, float64(ch.refs))
	}
	if ln != nil {
		ln.end(ch.root, ln.t.at(now))
		ch.op = ln.op()
		ch.root = ln.add(ch.op, -1, "op.replay_chunk", ln.t.at(now), 0)
	}
	ch.start, ch.refs, ch.failed = now, 0, false
}

func (w *liveReplay) layers(untraced, traced *phase, rec *tracer, m map[string]float64) error {
	rng := rand.New(rand.NewSource(w.opt.seed))
	offs := make([]int, 4096)
	for i := range offs {
		offs[i] = rng.Intn(units.PageSize)
	}
	pages := w.cl.probePages(probeCount(w.opt))
	if err := liveProbes(w.cl, m, pages, offs, proto.PolicyPipelined, rec); err != nil {
		return err
	}
	faultUs := median(traced.faults)
	clientLayers(m, traced.counters, faultUs)
	m["trace.read_ns_per_ref"] = traceReadNs(w.apps)
	m["trace.gen_s"] = median(w.genS)

	// The hit path: the untraced half's replay time, less its faults at
	// the traced fault latency and its trace reads at the probe's cost,
	// over the references that hit.
	replayNs := float64(untraced.busy)
	var refs float64
	for _, n := range untraced.work {
		refs += n
	}
	faults := untraced.counters["client.faults"]
	if hits := refs - faults; hits > 0 {
		m["client.hit_ns"] = (replayNs - faults*faultUs*1e3 - refs*m["trace.read_ns_per_ref"]) / hits
	}
	return nil
}

func (w *liveReplay) close() {
	for _, lane := range w.lanes {
		for _, r := range lane {
			_ = r.c.Close() // teardown; dirty pages are deliberately dropped
		}
	}
	w.lanes = nil
	if w.cl != nil {
		w.cl.close()
		w.cl = nil
	}
}
