package main

import (
	"fmt"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/trace"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// cpuIters is how many calls each CPU-only probe times.
const cpuIters = 200_000

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// cpuProbes times the wire format and the transfer plan at the workload's
// batch shapes and fault offsets: proto.batch_encode_ns and
// proto.batch_decode_ns per batch, core.plan_ns per Plan call.
func cpuProbes(m map[string]float64, shapes []batchShape, policies []string, offs []int) error {
	if len(shapes) == 0 {
		return fmt.Errorf("cpu probes: no batch shapes")
	}
	var hdr []byte
	payloads := make([][]byte, len(shapes))
	for i, s := range shapes {
		frame, err := proto.AppendSubpageBatchFrame(nil, 1, 7, s.flags, s.runs)
		if err != nil {
			return err
		}
		for _, r := range s.runs {
			frame = append(frame, r.Data...)
		}
		payloads[i] = frame[5:] // after the tag byte and the length word
	}

	start := clock()
	for i := 0; i < cpuIters; i++ {
		s := shapes[i%len(shapes)]
		var err error
		if hdr, err = proto.AppendSubpageBatchFrame(hdr[:0], uint64(i), 7, s.flags, s.runs); err != nil {
			return err
		}
	}
	m["proto.batch_encode_ns"] = float64(since(start).Nanoseconds()) / cpuIters
	sink += len(hdr)

	start = clock()
	for i := 0; i < cpuIters; i++ {
		b, err := proto.DecodeSubpageBatch(payloads[i%len(payloads)])
		if err != nil {
			return err
		}
		for r := 0; r < b.Runs(); r++ {
			_, data := b.Run(r)
			sink += len(data)
		}
	}
	m["proto.batch_decode_ns"] = float64(since(start).Nanoseconds()) / cpuIters

	calls := 0
	start = clock()
	for _, name := range policies {
		pol, err := core.ByName(name)
		if err != nil {
			return err
		}
		for i := 0; i < cpuIters/len(policies); i++ {
			sink += len(pol.Plan(subpageSize, offs[i%len(offs)]))
			calls++
		}
	}
	m["core.plan_ns"] = float64(since(start).Nanoseconds()) / float64(calls)
	return nil
}

// planShapes builds the batches a page server sends for a fault at off
// under the named policy on a raw loopback: the plan's first message,
// then the rest of the page coalesced into one batch.
func planShapes(policy string, off int) ([]batchShape, error) {
	pol, err := core.ByName(policy)
	if err != nil {
		return nil, err
	}
	page := make([]byte, units.PageSize)
	fillPattern(page, 0, 0)
	first := pol.Plan(subpageSize, off)[0].Covers
	rest := memmodel.FullBitmap &^ first
	shapes := []batchShape{{flags: proto.FlagFirst, runs: bitmapRuns(first, page)}}
	if rest == 0 {
		shapes[0].flags |= proto.FlagLast
		return shapes, nil
	}
	return append(shapes, batchShape{flags: proto.FlagLast, runs: bitmapRuns(rest, page)}), nil
}

// bitmapRuns splits a valid-bit map into contiguous runs over page.
func bitmapRuns(b memmodel.Bitmap, page []byte) []proto.SubpageRun {
	var runs []proto.SubpageRun
	for blk := 0; blk < units.ValidBitsPerPage; {
		if b&(1<<blk) == 0 {
			blk++
			continue
		}
		end := blk
		for end < units.ValidBitsPerPage && b&(1<<end) != 0 {
			end++
		}
		lo, hi := blk*units.MinSubpage, end*units.MinSubpage
		runs = append(runs, proto.SubpageRun{Off: uint32(lo), Data: page[lo:hi]})
		blk = end
	}
	return runs
}

// traceReadNs is the cost per reference of draining the apps' cached
// readers alone, with nothing else in the loop: the median of three
// passes over every app.
func traceReadNs(apps []*trace.App) float64 {
	buf := make([]trace.Ref, 8192)
	var passes []float64
	for pass := 0; pass < 3; pass++ {
		var refs int64
		start := clock()
		for _, a := range apps {
			rd := a.NewReader()
			for n := rd.Read(buf); n > 0; n = rd.Read(buf) {
				refs += int64(n)
			}
		}
		passes = append(passes, float64(since(start).Nanoseconds())/float64(refs))
	}
	return median(passes)
}
