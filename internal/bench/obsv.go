package bench

import (
	"fmt"

	"tca/internal/core"
	"tca/internal/obsv"
	"tca/internal/pcie"
	"tca/internal/peach2"
	"tca/internal/sim"
	"tca/internal/stats"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// spanCap bounds the trace scenarios' event retention; the largest scenario
// (a 255-descriptor chain) records well under this.
const spanCap = 8192

// Span is one traced transaction: its events, the reconstructed per-hop
// breakdown, and the hop total (== last event − first event).
type Span struct {
	Txn    uint64
	Events []obsv.Event
	Hops   []obsv.Hop
	Total  units.Duration
}

func newSpan(rec *obsv.Recorder, txn uint64) Span {
	events := rec.TxnEvents(txn)
	hops := obsv.Breakdown(events)
	return Span{Txn: txn, Events: events, Hops: hops, Total: obsv.TotalLatency(hops)}
}

// TraceResult is one observability scenario's outcome: the traced spans,
// the scenario's independently measured end-to-end latency, and the full
// metrics snapshot at completion.
type TraceResult struct {
	Scenario string
	Spans    []Span
	// EndToEnd is the scenario's own latency measurement (store-to-poll or
	// doorbell-to-completion), taken from the simulation clock without
	// consulting the spans — so a Span.Total that matches it certifies the
	// breakdown's self-consistency.
	EndToEnd units.Duration
	Snapshot *obsv.Snapshot
	Set      *obsv.Set
}

// instrumentedRing builds an n-node ring with a fresh observability set
// attached.
func instrumentedRing(n int, prm tcanet.Params) (*sim.Engine, *tcanet.SubCluster, *obsv.Set) {
	eng := sim.NewEngine()
	sc, err := tcanet.BuildRing(eng, n, prm)
	if err != nil {
		panic(err)
	}
	set := obsv.NewSet(spanCap)
	sc.Instrument(set)
	return eng, sc, set
}

// flagTarget allocates an 8-byte flag in dst's host memory and returns its
// local bus address and global address. It zero-fills the flag, so the
// sparse RAM allocates the flag's page during set-up and not inside a
// measured run (the perf gates count a run's heap allocations).
func flagTarget(sc *tcanet.SubCluster, dst int) (pcie.Addr, pcie.Addr) {
	buf, err := sc.Node(dst).AllocDMABuffer(8)
	if err != nil {
		panic(err)
	}
	if err := sc.Node(dst).WriteLocal(buf, make([]byte, 8)); err != nil {
		panic(err)
	}
	g, err := sc.GlobalHostAddr(dst, buf)
	if err != nil {
		panic(err)
	}
	return buf, g
}

// MeasurePIOLatency measures the one-way PIO store-to-poll latency from
// node src to node dst on a fresh UNinstrumented n-node ring — the
// reference number the traced scenarios must reproduce exactly.
func MeasurePIOLatency(prm tcanet.Params, n, src, dst int) units.Duration {
	eng := sim.NewEngine()
	sc, err := tcanet.BuildRing(eng, n, prm)
	if err != nil {
		panic(err)
	}
	buf, g := flagTarget(sc, dst)
	var seen sim.Time
	sc.Node(dst).Poll(pcie.Range{Base: buf, Size: 8}, func(now sim.Time) { seen = now })
	sc.Node(src).Store(g, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	eng.Run()
	if seen == 0 {
		panic("bench: PIO write never observed")
	}
	return seen.Elapsed()
}

// TraceForward runs one traced PIO store node src → node dst across an
// n-node ring and returns its hop breakdown plus the metrics snapshot —
// the "ring forward" inspection scenario.
func TraceForward(prm tcanet.Params, n, src, dst int) *TraceResult {
	eng, sc, set := instrumentedRing(n, prm)
	buf, g := flagTarget(sc, dst)
	var seen sim.Time
	sc.Node(dst).Poll(pcie.Range{Base: buf, Size: 8}, func(now sim.Time) { seen = now })
	txn := sc.Node(src).StoreTxn(g, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	eng.Run()
	if seen == 0 {
		panic("bench: traced PIO write never observed")
	}
	return &TraceResult{
		Scenario: fmt.Sprintf("forward node%d->node%d (%d-node ring)", src, dst, n),
		Spans:    []Span{newSpan(set.Recorder(), txn)},
		EndToEnd: seen.Elapsed(),
		Snapshot: set.Registry().Snapshot(eng.Now()),
		Set:      set,
	}
}

// TracePingPong runs the §IV-B1 ping-pong over an n-node ring: src stores a
// flag into dst's host memory; dst's poll loop answers with a store back.
// Both legs are traced; EndToEnd is the full round trip. The ping leg's hop
// sum equals the one-way MeasurePIOLatency for the same configuration.
func TracePingPong(prm tcanet.Params, n, src, dst int) *TraceResult {
	eng, sc, set := instrumentedRing(n, prm)
	dstBuf, dstG := flagTarget(sc, dst)
	srcBuf, srcG := flagTarget(sc, src)
	var pongTxn uint64
	var pongSeen sim.Time
	sc.Node(dst).Poll(pcie.Range{Base: dstBuf, Size: 8}, func(now sim.Time) {
		pongTxn = sc.Node(dst).StoreTxn(srcG, []byte{2, 0, 0, 0, 0, 0, 0, 0})
	})
	sc.Node(src).Poll(pcie.Range{Base: srcBuf, Size: 8}, func(now sim.Time) { pongSeen = now })
	pingTxn := sc.Node(src).StoreTxn(dstG, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	eng.Run()
	if pongSeen == 0 {
		panic("bench: pong never observed")
	}
	rec := set.Recorder()
	return &TraceResult{
		Scenario: fmt.Sprintf("ping-pong node%d<->node%d (%d-node ring)", src, dst, n),
		Spans:    []Span{newSpan(rec, pingTxn), newSpan(rec, pongTxn)},
		EndToEnd: pongSeen.Elapsed(),
		Snapshot: set.Registry().Snapshot(eng.Now()),
		Set:      set,
	}
}

// TraceDMA runs one traced block-stride DMA chain on a 2-node ring: count
// blocks of size bytes from node 0's internal memory into node 1's host
// memory at 2×size stride. The span covers doorbell → descriptor fetch →
// final issue → ring/link hops → flush ack → IRQ → driver completion.
func TraceDMA(prm tcanet.Params, size units.ByteSize, count int) *TraceResult {
	eng, sc, set := instrumentedRing(2, prm)
	comm, err := core.NewComm(sc)
	if err != nil {
		panic(err)
	}
	if err := sc.Chip(0).InternalMemory().Write(0, make([]byte, size)); err != nil {
		panic(err)
	}
	stride := 2 * uint64(size)
	buf, err := sc.Node(1).AllocDMABuffer(units.ByteSize(stride * uint64(count)))
	if err != nil {
		panic(err)
	}
	g, err := sc.GlobalHostAddr(1, buf)
	if err != nil {
		panic(err)
	}
	descs := make([]peach2.Descriptor, 0, count)
	for i := 0; i < count; i++ {
		descs = append(descs, peach2.Descriptor{
			Kind: peach2.DescWrite,
			Len:  size,
			Src:  0,
			Dst:  uint64(g) + uint64(i)*stride,
		})
	}
	var doneAt sim.Time
	if err := comm.StartChain(0, descs, func(now sim.Time) { doneAt = now }); err != nil {
		panic(err)
	}
	eng.Run()
	if doneAt == 0 {
		panic("bench: DMA chain never completed")
	}
	txn := sc.Chip(0).DMAC().LastChainTxn()
	return &TraceResult{
		Scenario: fmt.Sprintf("block-stride DMA %d×%v (stride %v) node0->node1", count, size, units.ByteSize(stride)),
		Spans:    []Span{newSpan(set.Recorder(), txn)},
		EndToEnd: doneAt.Elapsed(),
		Snapshot: set.Registry().Snapshot(eng.Now()),
		Set:      set,
	}
}

// ExtLatencyDist sweeps one-way PIO latency from node 0 to every other
// node of the ring and summarizes the distribution — the tail-latency view
// (p95/p99) alongside the mean, per ring size. Extension experiment.
func ExtLatencyDist(prm tcanet.Params) *Table {
	t := &Table{
		ID:      "ExtLatencyDist",
		Title:   "One-way PIO latency distribution across ring destinations (µs) — extension",
		XLabel:  "nodes",
		Columns: []string{"min", "mean", "median", "p95", "p99", "p999", "max"},
	}
	for _, n := range []int{4, 8, 16} {
		var us []float64
		for dst := 1; dst < n; dst++ {
			us = append(us, MeasurePIOLatency(prm, n, 0, dst).Microseconds())
		}
		s := stats.Summarize(us)
		t.AddRow(fmt.Sprintf("%d", n),
			US(s.Min), US(s.Mean), US(s.Median), US(s.P95), US(s.P99), US(s.P999), US(s.Max))
	}
	t.AddNote("destinations sweep node 1..n-1 from node 0; shortest-arc routing caps the hop count at n/2")
	t.AddNote("the p95/p99 tail is the antipodal distance — ring diameter, not queueing, drives it here")
	return t
}

// MetricsReport runs a short representative workload — a 2-hop PIO
// forward and a chained DMA — on an instrumented 4-node ring and returns
// the metrics snapshot, for tcabench's -metrics mode.
func MetricsReport(prm tcanet.Params) *obsv.Snapshot {
	eng, sc, set := instrumentedRing(4, prm)
	comm, err := core.NewComm(sc)
	if err != nil {
		panic(err)
	}
	buf, g := flagTarget(sc, 2)
	var seen sim.Time
	sc.Node(2).Poll(pcie.Range{Base: buf, Size: 8}, func(now sim.Time) { seen = now })
	sc.Node(0).Store(g, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	eng.Run()
	if seen == 0 {
		panic("bench: metrics PIO write never observed")
	}
	if err := sc.Chip(0).InternalMemory().Write(0, make([]byte, 4096)); err != nil {
		panic(err)
	}
	dmaBuf, err := sc.Node(1).AllocDMABuffer(16 * 4096)
	if err != nil {
		panic(err)
	}
	dg, err := sc.GlobalHostAddr(1, dmaBuf)
	if err != nil {
		panic(err)
	}
	var doneAt sim.Time
	if err := comm.StartChain(0, buildWriteChain(uint64(dg), 4096, 16), func(now sim.Time) { doneAt = now }); err != nil {
		panic(err)
	}
	eng.Run()
	if doneAt == 0 {
		panic("bench: metrics DMA chain never completed")
	}
	return set.Registry().Snapshot(eng.Now())
}
