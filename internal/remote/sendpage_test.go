package remote

import (
	"fmt"
	"testing"
	"time"

	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// batchCovers renders one reply batch as "<flags> <valid bitmap>", the
// unit the frame-sequence table below compares.
func batchCovers(b proto.SubpageBatch) string {
	var covers uint32
	for i := 0; i < b.Runs(); i++ {
		off, data := b.Run(i)
		for blk := off / units.MinSubpage; blk < (off+len(data))/units.MinSubpage; blk++ {
			covers |= 1 << blk
		}
	}
	flags := ""
	if b.Flags&proto.FlagFirst != 0 {
		flags += "F"
	}
	if b.Flags&proto.FlagLast != 0 {
		flags += "L"
	}
	if flags == "" {
		flags = "-"
	}
	return fmt.Sprintf("%s %08x", flags, covers)
}

// TestSendPageV2FrameSequence pins the exact (flags, covers) sequence the
// server's v2 sender emits for every wire policy, for a whole-page want, a
// partial want and a want reaching beyond the lazy plan, on the raw wire
// (the remainder coalesces into one batch) and on the emulated wire (one
// batch per plan message). The fault is at byte 1024 (1 KB subpage 1,
// MinSubpage blocks 4-7), so pipelined plans four messages: the faulted
// subpage, +1, -1, then the rest of the page.
func TestSendPageV2FrameSequence(t *testing.T) {
	const (
		wantAll     = 0
		wantPartial = 0x00000f00          // subpage 2 only: the faulted block is added, pipelined's -1 and rest messages go empty
		wantBeyond  = 0x800000f0 | 0xf000 // the faulted subpage plus blocks no lazy plan message covers
	)
	cases := []struct {
		policy uint8
		want   uint32
		raw    []string
		emu    []string
	}{
		{proto.PolicyFullPage, wantAll, []string{"FL ffffffff"}, []string{"FL ffffffff"}},
		{proto.PolicyFullPage, wantPartial, []string{"FL 00000f10"}, []string{"FL 00000f10"}},
		{proto.PolicyFullPage, wantBeyond, []string{"FL 8000f0f0"}, []string{"FL 8000f0f0"}},

		{proto.PolicyLazy, wantAll, []string{"F 000000f0", "L ffffff0f"}, []string{"FL ffffffff"}},
		{proto.PolicyLazy, wantPartial, []string{"F 00000010", "L 00000f00"}, []string{"FL 00000f10"}},
		{proto.PolicyLazy, wantBeyond, []string{"F 000000f0", "L 8000f000"}, []string{"FL 8000f0f0"}},

		{proto.PolicyEager, wantAll, []string{"F 000000f0", "L ffffff0f"}, []string{"F 000000f0", "L ffffff0f"}},
		{proto.PolicyEager, wantPartial, []string{"F 00000010", "L 00000f00"}, []string{"F 00000010", "L 00000f00"}},
		{proto.PolicyEager, wantBeyond, []string{"F 000000f0", "L 8000f000"}, []string{"F 000000f0", "L 8000f000"}},

		{proto.PolicyPipelined, wantAll, []string{"F 000000f0", "L ffffff0f"},
			[]string{"F 000000f0", "- 00000f00", "- 0000000f", "L fffff000"}},
		{proto.PolicyPipelined, wantPartial, []string{"F 00000010", "L 00000f00"},
			[]string{"F 00000010", "- 00000f00", "L 00000000"}},
		{proto.PolicyPipelined, wantBeyond, []string{"F 000000f0", "L 8000f000"},
			[]string{"F 000000f0", "L 8000f000"}},
	}
	_, srv := testCluster(t, 1)
	conn, w, r := dialRaw(t, srv.Addr())
	reqID := uint64(0)
	for _, emulate := range []bool{false, true} {
		if emulate {
			srv.SetWireMbps(8000) // 1 ns per byte: emulation on, delays negligible
		}
		for _, tc := range cases {
			reqID++
			if err := w.SendGetPageV2(proto.GetPageV2{
				ReqID: reqID, Page: 0, FaultOff: 1024, SubpageSize: 1024,
				Want: tc.want, Policy: tc.policy,
			}); err != nil {
				t.Fatal(err)
			}
			batches, last := readBatches(t, conn, r, reqID, 2*time.Second)
			if !last {
				t.Fatalf("policy %d want %#x emulate=%v: stream never completed", tc.policy, tc.want, emulate)
			}
			var got []string
			for _, b := range batches {
				got = append(got, batchCovers(b))
			}
			want := tc.raw
			if emulate {
				want = tc.emu
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("policy %d want %#x emulate=%v: frames %q, want %q", tc.policy, tc.want, emulate, got, want)
			}
		}
	}
}
