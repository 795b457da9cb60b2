package remote

import (
	"bytes"
	"errors"
	"testing"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// TestPolicyWireRoundTrip keeps the three policy registries in sync: every
// wire byte must name a policy core.ByName can build, the name must map
// back to the same byte, and the server's policyFor must resolve it. A new
// wire policy that misses one of the three layers fails here instead of at
// the first cross-version request.
func TestPolicyWireRoundTrip(t *testing.T) {
	for b := uint8(0); ; b++ {
		name, err := proto.PolicyName(b)
		if err != nil {
			if b == 0 {
				t.Fatal("no wire policies registered at all")
			}
			break // first unassigned byte: the wire table is dense by construction
		}
		pol, err := core.ByName(name)
		if err != nil {
			t.Errorf("wire byte %d names %q, which core.ByName rejects: %v", b, name, err)
			continue
		}
		if pol.Name() != name {
			t.Errorf("core policy for %q calls itself %q", name, pol.Name())
		}
		back, err := proto.PolicyByte(name)
		if err != nil || back != b {
			t.Errorf("PolicyByte(%q) = %d, %v; want %d", name, back, err, b)
		}
		spol, err := policyFor(b)
		if err != nil {
			t.Errorf("server policyFor(%d) failed: %v", b, err)
		} else if spol.Name() != name {
			t.Errorf("server policyFor(%d) = %q, want %q", b, spol.Name(), name)
		}
	}

	// Simulator-only policies must fail typed at the wire boundary, not
	// leak through as a bogus byte.
	for _, name := range []string{"prefetch", "widefault", "pipelined-double"} {
		if _, err := core.ByName(name); err != nil {
			t.Errorf("core.ByName(%q) failed: %v", name, err)
		}
		var ue *proto.UnknownPolicyError
		if _, err := proto.PolicyByte(name); err == nil {
			t.Errorf("PolicyByte(%q) succeeded; want UnknownPolicyError for a simulator-only policy", name)
		} else if !errors.As(err, &ue) {
			t.Errorf("PolicyByte(%q) error %T, want *proto.UnknownPolicyError", name, err)
		}
	}
}

// TestClientPrefetchLearnsStride drives the learned prefetcher end to end:
// a strided reader (10 MinSubpage blocks per step, a stride no static
// pipeline window covers) against a real server must converge to carrying
// predictions in its want bitmaps and fault strictly less than the same
// walk under plain lazy fetching — with every byte still correct.
func TestClientPrefetchLearnsStride(t *testing.T) {
	const pages = 8
	const stride = 10 * units.MinSubpage

	walk := func(c *Client) int64 {
		buf := make([]byte, 64)
		for addr := uint64(0); addr+64 <= pages*units.PageSize; addr += stride {
			if err := c.Read(buf, addr); err != nil {
				t.Fatal(err)
			}
			page, off := addr/units.PageSize, addr%units.PageSize
			if want := pagePattern(page)[off : off+64]; !bytes.Equal(buf, want) {
				t.Fatalf("wrong bytes at addr %d", addr)
			}
		}
		return c.Stats().Faults
	}

	dir, _ := testCluster(t, pages)
	lazyFaults := walk(testClient(t, dir, ClientConfig{Policy: proto.PolicyLazy, SubpageSize: 1024}))

	dir2, _ := testCluster(t, pages)
	cp := testClient(t, dir2, ClientConfig{Prefetch: true, SubpageSize: 1024})
	prefFaults := walk(cp)

	st := cp.Stats()
	if st.Predicted == 0 {
		t.Fatal("prefetch client never carried a prediction in a want bitmap")
	}
	if prefFaults >= lazyFaults {
		t.Fatalf("prefetch client faulted %d times, lazy baseline %d; predictions saved nothing",
			prefFaults, lazyFaults)
	}
}
