package netsim

import (
	"testing"

	"mafic/internal/sim"
)

// TestPacketPoolDoubleReleasePanics pins the double-release detector: the
// second release of the same pooled packet must panic instead of corrupting
// an unrelated in-flight packet.
func TestPacketPoolDoubleReleasePanics(t *testing.T) {
	n := New(sim.NewScheduler(), sim.NewRNG(1))
	p := n.NewPacket()
	n.FreePacket(p)

	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	n.FreePacket(p)
}

// TestPacketPoolReuse verifies released packets are recycled and handed back
// fully zeroed.
func TestPacketPoolReuse(t *testing.T) {
	n := New(sim.NewScheduler(), sim.NewRNG(1))
	p := n.NewPacket()
	p.ID = 77
	p.Label = FlowLabel{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	p.Malicious = true
	p.Hops = 9
	p.SetFlowHash(12345)
	n.FreePacket(p)

	q := n.NewPacket()
	if q != p {
		t.Fatal("pool did not recycle the released packet")
	}
	if q.ID != 0 || q.Label != (FlowLabel{}) || q.Malicious || q.Hops != 0 {
		t.Fatalf("recycled packet not zeroed: %+v", q)
	}
	if q.FlowHash() != (FlowLabel{}).Hash() {
		t.Fatal("recycled packet kept the previous flow-hash cache")
	}
	// And it is live again: releasing once more must not panic.
	n.FreePacket(q)
}

// TestExternalPacketReleaseIsNoop verifies directly constructed packets pass
// through terminal points without entering the pool.
func TestExternalPacketReleaseIsNoop(t *testing.T) {
	n := New(sim.NewScheduler(), sim.NewRNG(1))
	p := &Packet{ID: 1}
	n.FreePacket(p)
	n.FreePacket(p) // must not panic: the packet was never pooled
	if len(n.pktFree) != 0 {
		t.Fatal("external packet entered the pool")
	}
}

// TestPooledPacketRoundTrip drives a pooled packet through a link, a router
// and a host delivery, and verifies it lands back in the free list exactly
// once.
func TestPooledPacketRoundTrip(t *testing.T) {
	sched := sim.NewScheduler()
	n := New(sched, sim.NewRNG(1))
	r := n.AddRouter()
	src := n.AddHost(IP(0x0a000001))
	dst := n.AddHost(IP(0x0a000002))
	src.AttachTo(r.ID())
	dst.AttachTo(r.ID())
	cfg := LinkConfig{BandwidthBps: 1e9, Delay: sim.Millisecond}
	if err := n.ConnectDuplex(src.ID(), r.ID(), cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.ConnectDuplex(r.ID(), dst.ID(), cfg); err != nil {
		t.Fatal(err)
	}

	delivered := 0
	dst.SetDefaultHandler(func(pkt *Packet, _ sim.Time) {
		delivered++
		if pkt.freed {
			t.Fatal("handler saw an already-released packet")
		}
	})

	pkt := n.NewPacket()
	// The pool refills in chunks; what matters is that delivery returns
	// exactly this packet to the free list on top of whatever the chunk
	// refill left there.
	baseline := len(n.pktFree)
	pkt.ID = n.NextPacketID()
	pkt.Label = FlowLabel{SrcIP: src.PrimaryIP(), DstIP: dst.PrimaryIP(), SrcPort: 1000, DstPort: 80}
	pkt.Kind = KindData
	pkt.Size = 1000
	src.Send(pkt)

	if err := sched.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d packets, want 1", delivered)
	}
	if len(n.pktFree) != baseline+1 {
		t.Fatalf("free list has %d packets after delivery, want %d", len(n.pktFree), baseline+1)
	}
	if got := n.NewPacket(); got != pkt {
		t.Fatal("delivered packet was not recycled for the next allocation")
	}
}

// TestFlowLabelHashMatchesFNV pins the inlined FNV-1a loop to the reference
// implementation's constants via known values.
func TestFlowLabelHashMatchesFNV(t *testing.T) {
	// Reference digests computed with hash/fnv over the label's 12-byte
	// big-endian encoding prior to the inlining.
	cases := []struct {
		label FlowLabel
		want  uint64
	}{
		{FlowLabel{}, 0x5467b0da1d106495},
		{FlowLabel{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 1000, DstPort: 80}, 0xdd77cb4bdcaa4c2b},
	}
	for _, c := range cases {
		if got := c.label.Hash(); got != c.want {
			t.Fatalf("Hash(%v) = %#x, want %#x", c.label, got, c.want)
		}
	}
}
