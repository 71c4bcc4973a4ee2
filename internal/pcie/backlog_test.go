package pcie

import (
	"fmt"
	"testing"
	"time"

	"tca/internal/obsv"
	"tca/internal/sim"
	"tca/internal/units"
)

// TestDeepCreditBacklogDrainsInOrder queues a 64k-TLP credit backlog on one
// link direction and drains it: every TLP must arrive exactly once, in
// send order.
func TestDeepCreditBacklogDrainsInOrder(t *testing.T) {
	const n = 64 << 10
	eng, _, b, pa, _, l := testLink(t, LinkParams{Config: Gen2x8})
	data := make([]byte, 4)
	for i := 0; i < n; i++ {
		pa.Send(0, &TLP{Kind: MWr, Addr: Addr(i), Data: data})
	}
	if q := l.QueuedTLPs(pa); q != n-DefaultCreditTLPs {
		t.Fatalf("queued %d, want %d behind %d credits", q, n-DefaultCreditTLPs, DefaultCreditTLPs)
	}
	eng.Run()
	if len(b.got) != n {
		t.Fatalf("delivered %d, want %d", len(b.got), n)
	}
	for i, p := range b.got {
		if p.Addr != Addr(i) {
			t.Fatalf("delivery %d carries addr %v — reordered, lost or duplicated", i, p.Addr)
		}
	}
	if q := l.QueuedTLPs(pa); q != 0 {
		t.Fatalf("%d TLPs still queued after the drain", q)
	}
}

// TestDLLAckReleasesWrappedReplayBuffer drives the sender half of the DLL
// by hand. An early ACK lets queued TLPs refill the replay buffer, so its
// ring wraps; a cumulative ACK then releases entries across the wrap, and
// a NAK must go-back-N over the rest in sequence order.
func TestDLLAckReleasesWrappedReplayBuffer(t *testing.T) {
	const sent = 13
	eng, _, b, pa, _, l := testLink(t, LinkParams{Config: Gen2x8, CreditTLPs: 64})
	set := obsv.NewSet(1024)
	l.Instrument(set, "t")
	l.EnableDLL("t", nil, DLLParams{ReplayBufferTLPs: 8, ReplayTimeout: units.Millisecond})
	for i := 0; i < sent; i++ {
		pa.Send(0, &TLP{Kind: MWr, Addr: Addr(i), Data: make([]byte, 64), Txn: uint64(i + 1)})
	}
	dd := &l.dll.dirs[0]
	if dd.buf.Len() != 8 || l.QueuedTLPs(pa) != sent-8 {
		t.Fatalf("setup: replay buffer %d, queued %d; want 8 and %d", dd.buf.Len(), l.QueuedTLPs(pa), sent-8)
	}
	// Release seq 1..5; the five queued TLPs (seq 9..13) refill the
	// 8-slot ring from its start while its front sits at slot 5.
	l.dllpArrive(0, 0, 6, false)
	if dd.buf.Len() != 8 || l.QueuedTLPs(pa) != 0 {
		t.Fatalf("after first ACK: replay buffer %d, queued %d; want 8 and 0", dd.buf.Len(), l.QueuedTLPs(pa))
	}
	// Release seq 6..10 across the wrap, then NAK at 11.
	l.dllpArrive(0, 0, 11, true)
	var left []uint64
	for i := 0; i < dd.buf.Len(); i++ {
		left = append(left, dd.buf.At(i).seq)
	}
	if fmt.Sprint(left) != "[11 12 13]" {
		t.Fatalf("replay buffer after cumulative ACK = %v, want [11 12 13]", left)
	}
	var replayed []Addr
	for _, ev := range set.Recorder().Events() {
		if ev.Stage == obsv.StageReplay {
			replayed = append(replayed, Addr(ev.Addr))
		}
	}
	if fmt.Sprint(replayed) != fmt.Sprint([]Addr{10, 11, 12}) {
		t.Fatalf("NAK replayed %v, want the TLPs of seq 11..13 in order", replayed)
	}
	eng.Run()
	if len(b.got) != sent {
		t.Fatalf("delivered %d, want %d", len(b.got), sent)
	}
	for i, p := range b.got {
		if p.Addr != Addr(i) {
			t.Fatalf("delivery %d carries addr %v — replay reordered or duplicated", i, p.Addr)
		}
	}
	if dd.buf.Len() != 0 {
		t.Fatalf("%d entries left in the replay buffer after the run", dd.buf.Len())
	}
}

// countSink accepts and drains TLPs instantly, keeping only a count.
type countSink struct{ n int }

func (s *countSink) DevName() string { return "count" }

func (s *countSink) Accept(sim.Time, *TLP, *Port) units.Duration {
	s.n++
	return 0
}

// BenchmarkLinkCreditBacklog sends a burst of depth TLPs into one link at
// once and drains it, so all but the credit pool's worth queue for
// credits. The ns/tlp metric must stay flat as depth grows: each credit
// release pops the backlog in constant time.
func BenchmarkLinkCreditBacklog(b *testing.B) {
	for _, depth := range []int{1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("depth%dk", depth>>10), func(b *testing.B) {
			data := make([]byte, 64)
			tlps := make([]*TLP, depth)
			for i := range tlps {
				tlps[i] = &TLP{Kind: MWr, Addr: Addr(i * 64), Data: data}
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				src, dst := &countSink{}, &countSink{}
				pa := NewPort(src, "out", RoleRC)
				pb := NewPort(dst, "in", RoleEP)
				MustConnect(eng, pa, pb, LinkParams{Config: Gen2x8})
				for _, t := range tlps {
					pa.Send(0, t)
				}
				eng.Run()
				if dst.n != depth {
					b.Fatalf("delivered %d of %d", dst.n, depth)
				}
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*depth), "ns/tlp")
		})
	}
}
