package bench

import (
	"strings"
	"testing"

	"tca/internal/core"
	"tca/internal/obsv"
	"tca/internal/prof"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// traced runs w with a fresh obsv set plus the attachments in a.
func traced(t *testing.T, w Workload, a Attach) *Run {
	t.Helper()
	a.Set = obsv.NewSet(SpanCap)
	r, err := w.Run(tcanet.DefaultParams, a)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestObservationDoesNotPerturb runs every workload bare and with each
// attachment that only observes — an obsv set, a profiler, the sampler —
// and requires the same end time and the same delivered rounds, stores or
// bytes. Attachments that schedule no events of their own (all but the
// sampler's tick train) must also leave the event count and the queue
// high-water unchanged.
func TestObservationDoesNotPerturb(t *testing.T) {
	workloads := []struct {
		name string
		w    Workload
		done int
	}{
		{"pingpong", PingPong{Nodes: 4, Src: 0, Dst: 2, Rounds: 20}, 20},
		{"forward", Forward{Nodes: 8, Src: 0, Dst: 4, Stores: 50}, 50},
		{"chain", Chain{Nodes: 4, Src: 0, Dst: 2, Size: 4096, Count: 64, Chains: 2}, 2},
	}
	attachments := []struct {
		name      string
		attach    func() Attach
		ownEvents bool
	}{
		{"obsv", func() Attach { return Attach{Set: obsv.NewSet(SpanCap)} }, false},
		{"prof", func() Attach { return Attach{Prof: prof.New(prof.Options{SampleEvery: 2})} }, false},
		{"sampler", func() Attach { return Attach{Set: obsv.NewSet(SpanCap), Sample: units.Microsecond} }, true},
	}
	for _, wl := range workloads {
		bare, err := wl.w.Run(tcanet.DefaultParams, Attach{})
		if err != nil {
			t.Fatalf("%s bare: %v", wl.name, err)
		}
		if bare.Done != wl.done || bare.Stats.Events == 0 {
			t.Fatalf("%s bare: done %d of %d in %d events", wl.name, bare.Done, wl.done, bare.Stats.Events)
		}
		for _, at := range attachments {
			t.Run(wl.name+"/"+at.name, func(t *testing.T) {
				got, err := wl.w.Run(tcanet.DefaultParams, at.attach())
				if err != nil {
					t.Fatal(err)
				}
				if got.End != bare.End || got.Done != bare.Done || got.Moved != bare.Moved {
					t.Errorf("end %v, done %d, moved %v; bare run: end %v, done %d, moved %v",
						got.End, got.Done, got.Moved, bare.End, bare.Done, bare.Moved)
				}
				if at.ownEvents {
					return
				}
				if got.Stats.Events != bare.Stats.Events || got.Stats.QueueHighWater != bare.Stats.QueueHighWater {
					t.Errorf("events %d, queue high-water %d; bare run: %d, %d",
						got.Stats.Events, got.Stats.QueueHighWater, bare.Stats.Events, bare.Stats.QueueHighWater)
				}
			})
		}
	}
}

// A description no run could carry out is an error from Validate and from
// Run, never a panic.
func TestWorkloadValidate(t *testing.T) {
	for _, tc := range []struct {
		w    Workload
		want string
	}{
		{PingPong{Nodes: 4, Src: 0, Dst: 2, Rounds: 1}, ""},
		{PingPong{Nodes: 1, Src: 0, Dst: 1, Rounds: 1}, "nodes 1 outside"},
		{PingPong{Nodes: 17, Src: 0, Dst: 1, Rounds: 1}, "nodes 17 outside"},
		{PingPong{Nodes: 4, Src: 2, Dst: 2, Rounds: 1}, "distinct src and dst"},
		{PingPong{Nodes: 4, Src: -1, Dst: 2, Rounds: 1}, "distinct src and dst"},
		{PingPong{Nodes: 4, Src: 0, Dst: 4, Rounds: 1}, "distinct src and dst"},
		{PingPong{Nodes: 4, Src: 0, Dst: 2, Rounds: 0}, "rounds 0"},
		{Forward{Nodes: 8, Src: 0, Dst: 4, Stores: 0}, "stores 0"},
		{Chain{Nodes: 2, Src: 0, Dst: 1, Size: 0, Count: 8, Chains: 1}, "size 0"},
		{Chain{Nodes: 2, Src: 0, Dst: 1, Size: 4096, Count: 0, Chains: 1}, "count 0"},
		{Chain{Nodes: 2, Src: 0, Dst: 1, Size: 4096, Count: 8, Chains: 0}, "chains 0"},
		{Chain{Nodes: 2, Src: 0, Dst: 1, Size: 64, Count: core.MaxChain, Chains: 1}, ""},
		{Chain{Nodes: 2, Src: 0, Dst: 1, Size: 64, Count: core.MaxChain + 1, Chains: 1}, "exceeds the 256-entry table"},
	} {
		err := tc.w.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%+v: %v", tc.w, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: Validate() = %v, want %q", tc.w, err, tc.want)
		}
		if r, err := tc.w.Run(tcanet.DefaultParams, Attach{}); r != nil || err == nil {
			t.Errorf("%+v: Run returned (%v, %v), want the validation error", tc.w, r, err)
		}
	}
}

// Sampling reads the obsv set's probes, so asking for it without a set is
// an error.
func TestSampleNeedsSet(t *testing.T) {
	w := PingPong{Nodes: 2, Src: 0, Dst: 1, Rounds: 1}
	if _, err := w.Run(tcanet.DefaultParams, Attach{Sample: units.Microsecond}); err == nil {
		t.Fatal("sampling without an obsv set ran")
	}
}
