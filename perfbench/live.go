package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"github.com/gms-sim/gmsubpage/internal/dirshard"
	"github.com/gms-sim/gmsubpage/internal/obs"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/remote"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// Every live workload runs the same deployment: a two-shard directory
// cluster and two page servers on loopback, all in this process. Pages are
// striped over the servers (page p lives on server p mod 2) and hold a
// seeded pattern, so every byte a client reads can be checked.
const (
	liveShards  = 2
	liveServers = 2
	subpageSize = 1024
)

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// patternWord is the 8-byte word the servers hold at word index w of page.
func patternWord(seed, page uint64, w int) uint64 {
	return mix(seed ^ page*0xd1b54a32d192ed03 ^ uint64(w)<<48)
}

func fillPattern(buf []byte, seed, page uint64) {
	for w := 0; w < units.PageSize/8; w++ {
		binary.LittleEndian.PutUint64(buf[w*8:], patternWord(seed, page, w))
	}
}

// checkPattern reports whether buf, read at the word-aligned offset off of
// page, holds the seeded pattern.
func checkPattern(buf []byte, seed, page uint64, off int) bool {
	for i := 0; i+8 <= len(buf); i += 8 {
		if binary.LittleEndian.Uint64(buf[i:]) != patternWord(seed, page, (off+i)/8) {
			return false
		}
	}
	return true
}

// wireCounter counts the bytes and read/write calls crossing the clients'
// connections. Counting is switched on only in the traced half; the
// wrapper itself is always installed so both halves dial alike.
type wireCounter struct {
	on                            atomic.Bool
	reads, writes, rbytes, wbytes atomic.Int64
}

type countedConn struct {
	net.Conn
	w *wireCounter
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.w.on.Load() {
		c.w.reads.Add(1)
		c.w.rbytes.Add(int64(n))
	}
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.w.on.Load() {
		c.w.writes.Add(1)
		c.w.wbytes.Add(int64(n))
	}
	return n, err
}

func (w *wireCounter) dial(network, addr string) (net.Conn, error) {
	c, err := net.DialTimeout(network, addr, time.Second)
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, w: w}, nil
}

// cluster is one live deployment.
type cluster struct {
	seed    uint64
	pages   int
	dirs    *dirshard.Cluster
	dirRegs []*obs.Registry
	servers []*remote.Server
	srvRegs []*obs.Registry
	wire    wireCounter
}

// probeRegion is how many pages past the workload's the servers also
// store for the raw probes; no client touches them, so they always hold
// the pattern.
const probeRegion = 256

// startCluster brings up the directory shards and page servers and
// stores the workload's pages [0, pages) and the probe region after them
// with the seeded pattern.
func startCluster(seed uint64, pages int) (*cluster, error) {
	dirs, err := dirshard.StartCluster(liveShards, dirshard.Config{})
	if err != nil {
		return nil, err
	}
	c := &cluster{seed: seed, pages: pages, dirs: dirs}
	for i := 0; i < liveShards; i++ {
		reg := obs.NewRegistry()
		dirs.SetMetrics(i, reg)
		c.dirRegs = append(c.dirRegs, reg)
	}
	buf := make([]byte, units.PageSize)
	for s := 0; s < liveServers; s++ {
		srv, err := remote.ListenServer("127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		reg := obs.NewRegistry()
		srv.SetMetrics(reg)
		c.servers = append(c.servers, srv)
		c.srvRegs = append(c.srvRegs, reg)
		for p := s; p < pages+probeRegion; p += liveServers {
			fillPattern(buf, seed, uint64(p))
			srv.Store(uint64(p), buf)
		}
		if err := srv.RegisterWith(dirs.Bootstrap()); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func (c *cluster) close() {
	for _, s := range c.servers {
		_ = s.Close() // teardown: the run's result is already decided
	}
	if c.dirs != nil {
		_ = c.dirs.Close()
	}
}

// server is the page server holding page.
func (c *cluster) server(page uint64) *remote.Server {
	return c.servers[page%uint64(len(c.servers))]
}

// dial connects a fresh faulting client.
func (c *cluster) dial(cachePages int, policy uint8) (*remote.Client, error) {
	return remote.Dial(remote.ClientConfig{
		Directory:   c.dirs.Bootstrap(),
		CachePages:  cachePages,
		SubpageSize: subpageSize,
		Policy:      policy,
		Dial:        c.wire.dial,
	})
}

// counter sums a counter over registries.
func counter(regs []*obs.Registry, name string) int64 {
	var n int64
	for _, r := range regs {
		n += r.Counter(name, "").Value()
	}
	return n
}

// snapshot reads the counters a traced half turns into per-layer ratios.
func (c *cluster) snapshot(cs []*remote.Client) map[string]float64 {
	m := map[string]float64{
		"dir.lookups": float64(counter(c.dirRegs, "gms_dir_lookups_total")),
		"wire.reads":  float64(c.wire.reads.Load()),
		"wire.writes": float64(c.wire.writes.Load()),
		"wire.bytes":  float64(c.wire.rbytes.Load() + c.wire.wbytes.Load()),
	}
	addClientStats(m, cs)
	return m
}

func addClientStats(m map[string]float64, cs []*remote.Client) {
	for _, cl := range cs {
		addStats(m, cl.Stats())
	}
}

// addStats adds one client's counters to m.
func addStats(m map[string]float64, st remote.Stats) {
	m["client.faults"] += float64(st.Faults)
	m["client.evictions"] += float64(st.Evictions)
	m["client.putpages"] += float64(st.PutPages)
	m["client.retries"] += float64(st.Retries)
	m["client.cancels"] += float64(st.Cancels)
}

// delta is after - before, key by key.
func delta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// clientLayers turns a traced half's counter deltas into the client, wire
// and directory ratios. faultUs is the traced half's median fault latency.
func clientLayers(m map[string]float64, d map[string]float64, faultUs float64) {
	faults := d["client.faults"]
	m["dir.lookups_per_fault"] = ratio(d["dir.lookups"], faults)
	m["wire.bytes_per_fault"] = ratio(d["wire.bytes"], faults)
	m["wire.writes_per_fault"] = ratio(d["wire.writes"], faults)
	m["wire.reads_per_fault"] = ratio(d["wire.reads"], faults)
	m["client.evictions_per_fault"] = ratio(d["client.evictions"], faults)
	m["client.putpages_per_eviction"] = ratio(d["client.putpages"], d["client.evictions"])
	m["client.retries"] = d["client.retries"]
	m["client.cancels"] = d["client.cancels"]
	m["client.fault_us"] = faultUs
	// What the client adds to a fault beyond the server's reply and the
	// directory lookups it needed, each timed by a raw probe.
	m["client.self_us"] = faultUs - m["server.first_batch_us"] - m["dir.lookups_per_fault"]*m["dir.lookup_us"]
}

// rawConn is one of the probes' own connections.
type rawConn struct {
	conn net.Conn
	w    *proto.Writer
	r    *proto.Reader
}

// rawConns holds the probes' connections, one per address, dialed on first
// use.
type rawConns map[string]*rawConn

// get returns the connection to addr with a fresh deadline for one
// exchange.
func (rc rawConns) get(addr string) (*rawConn, error) {
	c := rc[addr]
	if c == nil {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return nil, err
		}
		c = &rawConn{conn: conn, w: proto.NewWriter(conn), r: proto.NewReader(conn)}
		rc[addr] = c
	}
	if err := c.conn.SetDeadline(clock().Add(2 * time.Second)); err != nil {
		return nil, err
	}
	return c, nil
}

func (rc rawConns) close() {
	for _, c := range rc {
		_ = c.conn.Close() // probe connection, nothing to flush
	}
}

// probeDirectory times raw TLookup RPCs on the benchmark's own connection
// to each page's owning shard and returns the median in µs. Every answer
// must name the server that stores the page.
func probeDirectory(c *cluster, pages []uint64, lane *lane) (float64, error) {
	ring := proto.NewRing(c.dirs.Map())
	conns := rawConns{}
	defer conns.close()
	lat := make([]float64, 0, len(pages))
	for _, page := range pages {
		sc, err := conns.get(c.dirs.Map().Shards[ring.Owner(page)])
		if err != nil {
			return 0, fmt.Errorf("probe directory: %w", err)
		}
		op := lane.op()
		t0 := lane.t.now()
		if err := sc.w.SendLookup(proto.Lookup{Page: page}); err != nil {
			return 0, fmt.Errorf("probe directory: %w", err)
		}
		t1 := lane.t.now()
		f, err := sc.r.Next()
		if err != nil {
			return 0, fmt.Errorf("probe directory: %w", err)
		}
		t2 := lane.t.now()
		if f.Type != proto.TLookupReply {
			return 0, fmt.Errorf("probe directory: page %d answered %v", page, f.Type)
		}
		rep, err := proto.DecodeLookupReply(f.Payload)
		if err != nil {
			return 0, err
		}
		if len(rep.Addrs) != 1 || rep.Addrs[0] != c.server(page).Addr() {
			return 0, fmt.Errorf("probe directory: page %d located at %v, stored on %s", page, rep.Addrs, c.server(page).Addr())
		}
		root := lane.add(op, -1, "probe.dir.lookup", t0, t2)
		lane.add(op, root, "proto.Writer.SendLookup", t0, t1)
		lane.add(op, root, "proto.Reader.Next", t1, t2)
		lat = append(lat, float64(t2-t0)/1e3)
	}
	return median(lat), nil
}

// batchShape is one TSubpageBatch as the server sent it.
type batchShape struct {
	flags uint8
	runs  []proto.SubpageRun
}

// serverProbe is what raw TGetPageV2 requests measured.
type serverProbe struct {
	firstUs, lastUs float64 // medians to the FlagFirst and FlagLast batch
	bytesPerGet     float64
	shapes          []batchShape // the batches of the first request
}

// probeServer times raw TGetPageV2 requests under policy on the
// benchmark's own connection to each page's server, from the send until
// the FlagFirst batch and until the FlagLast batch. Every byte received is
// checked against the page's pattern.
func probeServer(c *cluster, pages []uint64, offs []int, policy uint8, lane *lane) (*serverProbe, error) {
	conns := rawConns{}
	defer conns.close()
	res := &serverProbe{}
	var first, last []float64
	var bytes int64
	for i, page := range pages {
		sc, err := conns.get(c.server(page).Addr())
		if err != nil {
			return nil, fmt.Errorf("probe server: %w", err)
		}
		off := offs[i%len(offs)]
		reqID := uint64(i + 1)
		op := lane.op()
		t0 := lane.t.now()
		if err := sc.w.SendGetPageV2(proto.GetPageV2{ReqID: reqID, Page: page, FaultOff: uint32(off),
			SubpageSize: subpageSize, Policy: policy}); err != nil {
			return nil, fmt.Errorf("probe server: %w", err)
		}
		tSent := lane.t.now()
		var tFirst int64
		for {
			f, err := sc.r.Next()
			if err != nil {
				return nil, fmt.Errorf("probe server: %w", err)
			}
			if f.Type != proto.TSubpageBatch {
				return nil, fmt.Errorf("probe server: page %d answered %v", page, f.Type)
			}
			b, err := proto.DecodeSubpageBatch(f.Payload)
			if err != nil {
				return nil, err
			}
			now := lane.t.now()
			if b.ReqID != reqID || b.Page != page {
				return nil, fmt.Errorf("probe server: batch for req %d page %d, want %d/%d", b.ReqID, b.Page, reqID, page)
			}
			var shape batchShape
			shape.flags = b.Flags
			for r := 0; r < b.Runs(); r++ {
				roff, data := b.Run(r)
				if !checkPattern(data, c.seed, page, roff) {
					return nil, fmt.Errorf("probe server: page %d bytes at %d differ from the stored pattern", page, roff)
				}
				bytes += int64(len(data))
				shape.runs = append(shape.runs, proto.SubpageRun{Off: uint32(roff), Data: append([]byte(nil), data...)})
			}
			if i == 0 {
				res.shapes = append(res.shapes, shape)
			}
			if b.Flags&proto.FlagFirst != 0 {
				tFirst = now
				first = append(first, float64(now-t0)/1e3)
			}
			if b.Flags&proto.FlagLast != 0 {
				if tFirst == 0 {
					return nil, fmt.Errorf("probe server: page %d ended without a FlagFirst batch", page)
				}
				last = append(last, float64(now-t0)/1e3)
				root := lane.add(op, -1, "probe.server.get", t0, now)
				lane.add(op, root, "proto.Writer.SendGetPageV2", t0, tSent)
				lane.add(op, root, "wait.first_batch", tSent, tFirst)
				lane.add(op, root, "wait.last_batch", tFirst, now)
				break
			}
		}
	}
	res.firstUs, res.lastUs = median(first), median(last)
	res.bytesPerGet = float64(bytes) / float64(len(pages))
	return res, nil
}

// liveProbes runs the directory, server, wire-format and plan probes of a
// live workload and stores their metrics in m.
func liveProbes(c *cluster, m map[string]float64, pages []uint64, offs []int, policy uint8, rec *tracer) error {
	lane := rec.lane()
	lookup, err := probeDirectory(c, pages, lane)
	if err != nil {
		return err
	}
	m["dir.lookup_us"] = lookup
	sp, err := probeServer(c, pages, offs, policy, lane)
	if err != nil {
		return err
	}
	m["server.first_batch_us"] = sp.firstUs
	m["server.last_batch_us"] = sp.lastUs
	m["server.bytes_out_per_get"] = sp.bytesPerGet
	name, err := proto.PolicyName(policy)
	if err != nil {
		return err
	}
	return cpuProbes(m, sp.shapes, []string{name}, offs)
}

// probeCount is how many raw RPCs each live probe times.
func probeCount(opt options) int {
	if opt.tiny {
		return 100
	}
	return 2000
}

// probePages returns n page numbers cycling over the probe region.
func (c *cluster) probePages(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(c.pages + i%probeRegion)
	}
	return out
}
