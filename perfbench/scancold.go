package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/remote"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// scanCold is live-scan-cold: in each pass every client is freshly dialed
// and scans its own range of pages it has never touched, touching 8 B at
// every 1 KB offset of each page in ascending order under the pipelined
// policy, with a cache much smaller than the range. Every fourth page is
// written instead of read, so dirty evictions go through write-back. A
// fresh client knows no locations, so every page costs one directory
// lookup. The op is one whole page: from its first touch until all its
// subpages have been consumed.
type scanCold struct {
	opt               options
	rangePages, cache int
	readback          int
	cl                *cluster
	pass              uint64
	putsSent          int64 // write-backs the clients have sent to this cluster
}

func newScanCold(opt options) *scanCold {
	w := &scanCold{opt: opt, rangePages: 4096, cache: 256, readback: 16}
	if opt.tiny {
		w.rangePages, w.cache, w.readback = 128, 16, 4
	}
	return w
}

func (w *scanCold) describe() description {
	return description{
		sizes: map[string]any{"range_pages_per_client": w.rangePages, "cache_pages": w.cache,
			"clients": clients(), "touch_bytes": 8, "touch_stride": subpageSize, "subpage": subpageSize,
			"policy": "pipelined", "written_every": 4, "readback_pages_per_pass": w.readback,
			"servers": liveServers, "dir_shards": liveShards},
		aliases: map[string]string{"op_p50_us": "page_p50_us", "op_p90_us": "page_p90_us",
			"rate_per_s": "pages_per_s (scan_mb_per_s = rate_per_s * 8192 / 1e6)"},
	}
}

func (w *scanCold) setup(rep int) error {
	w.close()
	cl, err := startCluster(uint64(w.opt.seed), clients()*w.rangePages)
	if err != nil {
		return err
	}
	w.cl = cl
	w.putsSent = 0
	return nil
}

// stampWord is what pass writes at block blk of page.
func stampWord(seed, pass, page uint64, blk int) uint64 {
	return mix(^seed ^ pass<<44 ^ page<<8 ^ uint64(blk) ^ 0x5bd1e9955bd1e995)
}

func (w *scanCold) measure(d time.Duration, rec *tracer) (*phase, error) {
	total := &phase{}
	var before map[string]float64
	if rec != nil {
		before = w.cl.snapshot(nil)
		w.cl.wire.on.Store(true)
	}
	clientStats := make(map[string]float64)
	var active time.Duration
	for k := 0; active < d || k == 0; k++ {
		w.pass++
		n := clients()
		phases := make([]*phase, n)
		stats := make([]remote.Stats, n)
		loopEnds := make([]time.Duration, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		start := clock()
		for g := 0; g < n; g++ {
			var ln *lane
			if rec != nil {
				ln = rec.lane()
			}
			wg.Add(1)
			go func(g int, ln *lane) {
				defer wg.Done()
				phases[g], stats[g], loopEnds[g], errs[g] = w.scan(g, k, start, ln)
			}(g, ln)
		}
		wg.Wait()
		var slowest time.Duration
		for g := 0; g < n; g++ {
			if errs[g] != nil {
				return nil, errs[g]
			}
			total.merge(phases[g])
			if loopEnds[g] > slowest {
				slowest = loopEnds[g]
			}
			addStats(clientStats, stats[g])
			w.putsSent += stats[g].PutPages
		}
		active += slowest
		total.rates = append(total.rates, float64(n*w.rangePages)/slowest.Seconds())
		if err := w.awaitPuts(); err != nil {
			return nil, err
		}
	}
	if rec != nil {
		w.cl.wire.on.Store(false)
		total.counters = delta(before, w.cl.snapshot(nil))
		for k, v := range clientStats {
			total.counters[k] = v
		}
	}
	return total, nil
}

// awaitPuts waits until the servers have applied every write-back the
// closed clients sent, so no pass overlaps the previous one's tail.
func (w *scanCold) awaitPuts() error {
	deadline := clock().Add(5 * time.Second)
	for {
		got := counter(w.cl.srvRegs, "gms_server_puts_total")
		if got == w.putsSent {
			return nil
		}
		if clock().After(deadline) {
			return fmt.Errorf("pass %d: servers applied %d of %d write-backs", w.pass, got, w.putsSent)
		}
		time.Sleep(time.Millisecond)
	}
}

// scan runs one client's share of pass k of this phase: the range scan,
// then the read-back of a sample of its written pages. Each pass is one
// window. It returns the client's counters and when its scan loop ended.
func (w *scanCold) scan(g, k int, start time.Time, ln *lane) (*phase, remote.Stats, time.Duration, error) {
	ph := &phase{}
	c, err := w.cl.dial(w.cache, proto.PolicyPipelined)
	if err != nil {
		return nil, remote.Stats{}, 0, err
	}
	defer c.Close()
	seed, pass := uint64(w.opt.seed), w.pass
	base := uint64(g * w.rangePages)
	word := make([]byte, 8)
	blocks := units.PageSize / subpageSize
	for i := 0; i < w.rangePages; i++ {
		page := base + uint64(i)
		write := page%4 == 3
		ph.attempted++
		t0 := clock()
		var tFirst time.Time
		failed, mismatch := false, false
		for blk := 0; blk < blocks && !failed; blk++ {
			addr := page*units.PageSize + uint64(blk*subpageSize)
			if write {
				binary.LittleEndian.PutUint64(word, stampWord(seed, pass, page, blk))
				err = c.Write(word, addr)
			} else {
				err = c.Read(word, addr)
				if err == nil && !checkPattern(word, seed, page, blk*subpageSize) {
					failed, mismatch = true, true
				}
			}
			if err != nil {
				failed = true
			}
			if blk == 0 {
				tFirst = clock()
			}
		}
		t1 := clock()
		if failed {
			ph.fail(mismatch, int64(k))
			continue
		}
		if !write {
			ph.checked += int64(blocks)
		}
		ph.done(t1.Sub(t0), int64(k), 1)
		ph.faults = append(ph.faults, float64(tFirst.Sub(t0))/1e3)
		if ln != nil {
			op := ln.op()
			root := ln.add(op, -1, "op.scan_page", ln.t.at(t0), ln.t.at(t1))
			name := "remote.Client.Read"
			if write {
				name = "remote.Client.Write"
			}
			ln.add(op, root, name+" (fault)", ln.t.at(t0), ln.t.at(tFirst))
			ln.add(op, root, name+" (rest of page)", ln.t.at(tFirst), ln.t.at(t1))
		}
	}
	loopEnd := since(start)

	// Read back written pages from the first half of the range: the scan
	// has long since evicted them, so their bytes come from the server the
	// write-back sent them to, and must carry this pass's stamps.
	written := w.rangePages / 8 // written pages in the first half
	for j := 0; j < w.readback; j++ {
		page := base + uint64(4*(j*written/w.readback)+3)
		ph.attempted++
		ok := true
		for blk := 0; blk < blocks; blk++ {
			if err := c.Read(word, page*units.PageSize+uint64(blk*subpageSize)); err != nil {
				ok = false
				ph.fail(false, int64(k))
				break
			}
			if binary.LittleEndian.Uint64(word) != stampWord(seed, pass, page, blk) {
				ok = false
				ph.fail(true, int64(k))
				break
			}
		}
		if ok {
			ph.checked += int64(blocks)
		}
	}
	return ph, c.Stats(), loopEnd, nil
}

func (w *scanCold) layers(untraced, traced *phase, rec *tracer, m map[string]float64) error {
	pages := w.cl.probePages(probeCount(w.opt))
	if err := liveProbes(w.cl, m, pages, []int{0}, proto.PolicyPipelined, rec); err != nil {
		return err
	}
	clientLayers(m, traced.counters, median(traced.faults))
	return nil
}

func (w *scanCold) close() {
	if w.cl != nil {
		w.cl.close()
		w.cl = nil
	}
}
