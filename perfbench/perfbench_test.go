package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// An empty measurement window must read exactly zero allocations: the
// harness's own reads must not leak into what it measures.
func TestEmptyAllocWindowReadsZero(t *testing.T) {
	w := newAllocWindow()
	for i := 0; i < 100; i++ {
		w.open()
		if objs, bytes, _ := w.close(); objs != 0 || bytes != 0 {
			t.Fatalf("window %d: empty window read %d allocations, %d bytes", i, objs, bytes)
		}
	}
}

// deterministicMetrics are the traced run's counts that come from the
// simulation alone; two runs of the same workload must agree exactly.
var deterministicMetrics = []string{
	"sim.events", "sim.queue_high_water", "pcie.link_tlps", "pcie.link_bytes",
	"pcie.credit_wait_sim_ns", "peach2.dma_write_tlps", "peach2.dma_reads_sent",
	"host.rc_dram_tlps", "check.ledger_tlps", "check.violations", "fault.replays", "fault.link_down",
}

// A second traced run of each workload reproduces every deterministic
// count; a difference is non-determinism, not noise.
func TestTracedCountsReproduce(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && (name == "ring-contention" || name == "fuzz-jobs") {
				t.Skip("long workload")
			}
			var first metrics
			for i := 0; i < 2; i++ {
				w, err := newWorkload(name, 7)
				if err != nil {
					t.Fatal(err)
				}
				tl := newTally()
				m := metrics{}
				w.traceLayers(tl, m)
				if len(tl.wrong) != 0 {
					t.Fatalf("run %d incorrect: %v", i, tl.wrong)
				}
				if first == nil {
					first = m
					continue
				}
				for _, k := range deterministicMetrics {
					if m[k] != first[k] {
						t.Errorf("%s: %v, then %v", k, first[k], m[k])
					}
				}
			}
			if first["sim.events"].Value == 0 {
				t.Error("traced run simulated no events")
			}
		})
	}
}

// The result line carries exactly the four keys, with every end-to-end
// metric; a bad flag or a missing baseline prints no result.
func TestResultLine(t *testing.T) {
	base, err := filepath.Abs("../BENCH_PR2.json")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"-workload", "pio-pingpong", "-seconds", "0.1", "-baseline", base}, &out); code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatal(err)
	}
	var m metrics
	if err := json.Unmarshal(res["metrics"], &m); err != nil || len(res) != 4 || string(res["correct"]) != "true" {
		t.Fatalf("result %s (%v)", lines[len(lines)-1], err)
	}
	for _, k := range []string{"cpu_s", "setup_s", "peak_rss_mb", "sim_err_pct"} {
		if m[k].Value <= 0 {
			t.Errorf("%s = %v, want a positive value", k, m[k])
		}
	}

	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "pio-pingpong", "-trace", "2"},
		{"-workload", "pio-pingpong", "-baseline", filepath.Join(t.TempDir(), "missing.json")},
	} {
		out.Reset()
		if code := run(args, &out); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}

// BENCHMARK.json names what the result lines carry: every end-to-end
// metric in an untraced run, every per-layer metric in a traced one.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("workloads %v, BENCHMARK.json %v", workloadNames, names)
	}
	units := map[string]string{}
	for _, nu := range perLayer {
		units[nu[0]] = nu[1]
	}
	if len(b.PerLayer) != len(units) {
		t.Errorf("%d per-layer metrics, BENCHMARK.json lists %d", len(units), len(b.PerLayer))
	}
	for _, p := range b.PerLayer {
		if units[p.Name] != p.Unit {
			t.Errorf("%s: unit %q, BENCHMARK.json %q", p.Name, units[p.Name], p.Unit)
		}
	}
	m := metrics{}
	m.set("sim_err_pct", "%", 0)
	endToEnd(pioPingPong{}, newTally(), m, 0.1, start(), io.Discard)
	if len(m) != len(b.EndToEnd) {
		t.Errorf("untraced run reports %d metrics, BENCHMARK.json lists %d", len(m), len(b.EndToEnd))
	}
	for _, e := range b.EndToEnd {
		if m[e.Name].Unit != e.Unit {
			t.Errorf("%s: unit %q, BENCHMARK.json %q", e.Name, m[e.Name].Unit, e.Unit)
		}
	}
}

func TestFailureKind(t *testing.T) {
	for in, want := range map[string]string{
		"invariant: t=4.34ms lid=0 at fabric: parked-accounting: chips hold 319 parked TLPs": "invariant:parked-accounting",
		"determinism: two runs of the same spec diverged":                                    "determinism",
	} {
		if got := failureKind(in); got != want {
			t.Errorf("failureKind(%q) = %q, want %q", in, got, want)
		}
	}
}

// attempted and failed count one pass; a later pass must fail the same
// checks as often, or the run is incorrect.
func TestSameOps(t *testing.T) {
	pass := func(fails ...string) *tally {
		tl := newTally()
		tl.op("a", nil)
		for _, f := range fails {
			tl.op(f, fmt.Errorf("%s", f))
		}
		return tl
	}
	first := pass("x", "y")
	if !pass("y", "x").sameOps(first) {
		t.Error("the same failures in another order differ")
	}
	for _, again := range []*tally{pass("x"), pass("x", "x"), pass("x", "y", "y"), pass("x", "z")} {
		if again.sameOps(first) || first.sameOps(again) {
			t.Errorf("failures %v equal %v", again.failed, first.failed)
		}
	}
	total := newTally()
	total.add(first)
	total.add(pass("x"))
	if total.attempted != 5 || total.failures() != 3 || total.failed["x"] != 2 {
		t.Errorf("add: attempted %d, failed %v", total.attempted, total.failed)
	}
}
