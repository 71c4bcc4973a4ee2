package obsv

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tca/internal/sim"
	"tca/internal/units"
)

// TestRingsEvictAcrossWrap fills a series and a set's span recorder past
// capacity (power of two and not) and checks that exactly the oldest
// entries are evicted, in order, and that the eviction counts agree.
func TestRingsEvictAcrossWrap(t *testing.T) {
	for _, capacity := range []int{1, 3, 4096} {
		n := capacity + capacity/2 + 2 // laps the ring at every capacity
		evicted := n - capacity

		s := newSeries("sig", "comp", "", "u", capacity)
		set := NewSet(capacity)
		for i := 1; i <= n; i++ {
			s.append(sim.Time(i), float64(i))
			set.Rec.Record(Event{At: sim.Time(i), Txn: 1, Stage: StageLinkTx})
		}

		samples := s.Samples()
		if len(samples) != capacity || s.Len() != capacity {
			t.Fatalf("cap %d: series keeps %d (Len %d), want %d", capacity, len(samples), s.Len(), capacity)
		}
		for i, sm := range samples {
			if want := sim.Time(evicted + 1 + i); sm.At != want || sm.V != float64(want) {
				t.Fatalf("cap %d: samples[%d] = %+v, want at %d", capacity, i, sm, want)
			}
		}
		if last, ok := s.Last(); !ok || last.At != sim.Time(n) {
			t.Fatalf("cap %d: Last = %+v, %v, want at %d", capacity, last, ok, n)
		}

		rec := set.Rec
		evs := rec.Events()
		if len(evs) != capacity || rec.Len() != capacity || rec.Total() != uint64(n) {
			t.Fatalf("cap %d: recorder keeps %d (Len %d, Total %d), want %d of %d",
				capacity, len(evs), rec.Len(), rec.Total(), capacity, n)
		}
		for i, ev := range evs {
			if want := sim.Time(evicted + 1 + i); ev.At != want {
				t.Fatalf("cap %d: events[%d].At = %d, want %d", capacity, i, ev.At, want)
			}
		}
		if rec.Evicted() != uint64(evicted) {
			t.Fatalf("cap %d: Evicted = %d, want %d", capacity, rec.Evicted(), evicted)
		}
		if v, ok := set.Reg.Snapshot(0).Counter("span_evictions", "recorder"); !ok || v != uint64(evicted) {
			t.Fatalf("cap %d: span_evictions = %d, %v, want %d", capacity, v, ok, evicted)
		}
	}
}

// TestRingStorageGrowsOnFirstUse: a set, a recorder and a registered
// probe hold no event or sample storage until something is recorded.
func TestRingStorageGrowsOnFirstUse(t *testing.T) {
	set := NewSet(1 << 16)
	probe := func(sim.Time, units.Duration) float64 { return 1 }
	s := set.Sam.Register("sig", "comp", "", "u", probe)
	if c := set.Rec.events.Cap(); c != 0 {
		t.Fatalf("NewSet recorder ring holds %d events before any Record", c)
	}
	if c := s.samples.Cap(); c != 0 {
		t.Fatalf("registered series ring holds %d samples before any tick", c)
	}
	set.Rec.Record(Event{At: 1, Txn: 1, Stage: StageCPUStore})
	s.append(1, 1)
	if rc, sc := set.Rec.events.Cap(), s.samples.Cap(); rc == 0 || rc > 8 || sc == 0 || sc > 8 {
		t.Fatalf("after one entry the rings hold %d events and %d samples, want a few", rc, sc)
	}
}

// TestSnapshotLookupMisses: a lookup matches name, component and every
// label exactly.
func TestSnapshotLookupMisses(t *testing.T) {
	reg := NewRegistry()
	ab := Label{Key: "dir", Value: "ab"}
	reg.Counter("link_bytes_tx", "link:x", ab).Add(5)
	reg.Gauge("depth", "link:x", ab).Set(2)
	reg.Histogram("lat", "link:x", nil, ab).Observe(units.Microsecond)
	snap := reg.Snapshot(0)

	if v, ok := snap.Counter("link_bytes_tx", "link:x", ab); !ok || v != 5 {
		t.Fatalf("labelled counter = %d, %v, want 5", v, ok)
	}
	for _, labels := range [][]Label{
		nil,
		{{Key: "dir", Value: "ba"}},
		{{Key: "way", Value: "ab"}},
		{ab, {Key: "port", Value: "E"}},
	} {
		if _, ok := snap.Counter("link_bytes_tx", "link:x", labels...); ok {
			t.Errorf("counter lookup with labels %v matched dir=ab", labels)
		}
		if _, ok := snap.Gauge("depth", "link:x", labels...); ok {
			t.Errorf("gauge lookup with labels %v matched dir=ab", labels)
		}
		if _, ok := snap.Histogram("lat", "link:x", labels...); ok {
			t.Errorf("histogram lookup with labels %v matched dir=ab", labels)
		}
	}
	if _, ok := snap.Counter("link_bytes_rx", "link:x", ab); ok {
		t.Error("missing counter found")
	}
	if _, ok := snap.Gauge("depth", "link:y", ab); ok {
		t.Error("gauge found under the wrong component")
	}
	if h, ok := snap.Histogram("lat", "link:x", ab); !ok || h.Count != 1 {
		t.Fatalf("histogram = %+v, %v, want one observation", h, ok)
	}
}

// TestSnapshotExportOrder: exports list metrics in the byte order of
// their "name|component|k=v" keys, where '_' sorts before '|', so "a_b"
// precedes "a" — not in field-by-field name order.
func TestSnapshotExportOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a", "c").Inc()
	reg.Counter("a_b", "c").Inc()
	reg.Gauge("a", "g").Set(1)
	reg.Gauge("a_b", "g").Set(1)
	reg.Histogram("a", "h", nil).Observe(1)
	reg.Histogram("a_b", "h", nil).Observe(1)
	snap := reg.Snapshot(0)

	if snap.Counters[0].Name != "a_b" || snap.Gauges[0].Name != "a_b" || snap.Histograms[0].Name != "a_b" {
		t.Fatalf("snapshot order: counters %s,%s gauges %s,%s histograms %s,%s; want a_b first",
			snap.Counters[0].Name, snap.Counters[1].Name, snap.Gauges[0].Name, snap.Gauges[1].Name,
			snap.Histograms[0].Name, snap.Histograms[1].Name)
	}

	var prom strings.Builder
	snap.WritePrometheus(&prom)
	if i, j := strings.Index(prom.String(), "tca_a_b{"), strings.Index(prom.String(), "tca_a{"); i < 0 || j < 0 || i > j {
		t.Fatalf("prometheus lists tca_a before tca_a_b:\n%s", prom.String())
	}

	var js bytes.Buffer
	if err := snap.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters[0].Name != "a_b" || back.Counters[1].Name != "a" {
		t.Fatalf("JSON counter order %s,%s, want a_b,a", back.Counters[0].Name, back.Counters[1].Name)
	}
}
