package bench

import (
	"fmt"

	"tca/internal/obsv"
	"tca/internal/stats"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// Span is one traced transaction: its events, the reconstructed per-hop
// breakdown, and the hop total (== last event − first event).
type Span struct {
	Txn    uint64
	Events []obsv.Event
	Hops   []obsv.Hop
	Total  units.Duration
}

// TraceResult is the span view of a traced run: every traced transaction,
// the run's independently measured end-to-end latency, and the full
// metrics snapshot at completion.
type TraceResult struct {
	Scenario string
	Spans    []Span
	// EndToEnd is the run's own latency measurement (first store to the
	// last poll, or doorbell to the last completion), taken from the
	// simulation clock without consulting the spans — so a Span.Total that
	// matches it certifies the breakdown's self-consistency.
	EndToEnd units.Duration
	Snapshot *obsv.Snapshot
	Set      *obsv.Set
}

// Trace is the span view of a run made with a Set attached.
func (r *Run) Trace(scenario string) *TraceResult {
	rec := r.Set.Recorder()
	spans := make([]Span, 0, len(r.Txns))
	for _, txn := range r.Txns {
		events := rec.TxnEvents(txn)
		hops := obsv.Breakdown(events)
		spans = append(spans, Span{Txn: txn, Events: events, Hops: hops, Total: obsv.TotalLatency(hops)})
	}
	return &TraceResult{
		Scenario: scenario,
		Spans:    spans,
		EndToEnd: r.End.Elapsed(),
		Snapshot: r.Snapshot(),
		Set:      r.Set,
	}
}

// Snapshot is the metrics view of a run: its Set's registry at the
// engine's final time.
func (r *Run) Snapshot() *obsv.Snapshot {
	return r.Set.Registry().Snapshot(r.Eng.Now())
}

// MeasurePIOLatency measures the one-way PIO store-to-poll latency from
// node src to node dst on a fresh uninstrumented n-node ring — the
// reference number the traced runs must reproduce exactly.
func MeasurePIOLatency(prm tcanet.Params, n, src, dst int) units.Duration {
	r, err := Forward{Nodes: n, Src: src, Dst: dst, Stores: 1}.Run(prm, Attach{})
	if err != nil {
		panic(err)
	}
	return r.End.Elapsed()
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
// forward, then a chained DMA on the same instrumented 4-node ring — and
// returns the metrics snapshot, for tcabench's -metrics mode.
func MetricsReport(prm tcanet.Params) *obsv.Snapshot {
	r, err := newRun(4, prm, Attach{Set: obsv.NewSet(SpanCap)})
	if err == nil {
		err = Forward{Nodes: 4, Src: 0, Dst: 2, Stores: 1}.drive(r)
	}
	if err == nil {
		err = Chain{Nodes: 4, Src: 0, Dst: 1, Size: 4096, Count: 16, Chains: 1}.drive(r)
	}
	if err != nil {
		panic(err)
	}
	return r.Snapshot()
}
