// Command perfbench is the host-performance benchmark of the TCA/PEACH2
// simulator. It runs one of four workloads for a fixed time with tracing
// off and reports end-to-end metrics, or (-trace 1) makes a traced run
// that splits the simulator's host time and work by layer:
//
//	bash perfbench/run.sh --workload paper-figures --seed 1 --seconds 30 --trace 0
//
// It drives the program only through its public functions and checks the
// program's outputs on every run. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics. See
// README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"

	"tca/internal/bench"
	"tca/internal/pcie"
	"tca/internal/tcanet"
)

// workload is one named set of inputs.
type workload interface {
	// setUp builds what precedes the workload's first simulated event.
	// The returned release, if any, runs outside the timed window.
	setUp() (release func(), err error)
	// pass runs the workload once and returns the latency of each job —
	// each timed call into the program — and a fingerprint of the pass's
	// deterministic outputs, which must not change from pass to pass.
	pass(tl *tally) (fingerprint string, jobsMS []float64)
	// traceLayers makes the traced run's per-layer measurements.
	traceLayers(tl *tally, m metrics)
}

var workloadNames = []string{"paper-figures", "ring-contention", "pio-pingpong", "fuzz-jobs"}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "paper-figures":
		return newPaperFigures()
	case "ring-contention":
		return ringContention{}, nil
	case "pio-pingpong":
		return pioPingPong{}, nil
	case "fuzz-jobs":
		return newFuzzJobs(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// perLayer lists every traced-run metric with its unit. A workload that
// does not exercise a layer reports 0 for it.
var perLayer = [][2]string{
	{"sim.events", "count"}, {"sim.queue_high_water", "count"}, {"sim.ns_per_event", "ns"},
	{"sim.engine_share", "ratio"}, {"sim.step_ns.depth2", "ns"}, {"sim.step_ns.depth1k", "ns"},
	{"pcie.link_share", "ratio"}, {"pcie.switch_share", "ratio"}, {"pcie.link_tlps", "count"},
	{"pcie.link_bytes", "B"}, {"pcie.credit_wait_sim_ns", "ns"}, {"pcie.route_ns", "ns"}, {"pcie.tagtable_ns", "ns"},
	{"peach2.dmac_share", "ratio"}, {"peach2.chip_share", "ratio"}, {"peach2.dma_write_tlps", "count"},
	{"peach2.dma_reads_sent", "count"},
	{"host.node_share", "ratio"}, {"host.rc_dram_tlps", "count"}, {"memory.read_ns.4k", "ns"}, {"memory.write_ns.4k", "ns"},
	{"tcanet.build_ms.n16", "ms"}, {"core.newcomm_ms", "ms"},
	{"obsv.newset_ms", "ms"}, {"obsv.newset_mb", "MB"}, {"obsv.overhead_x", "x"},
	{"check.rundiff_ms", "ms"}, {"check.ledger_tlps", "count"}, {"check.violations", "count"},
	{"fault.replays", "count"}, {"fault.link_down", "count"}, {"scenariogen.generate_us", "us"},
	{"tcad.queue_wait_ms", "ms"}, {"tcad.submit_us", "us"}, {"tcad.cache_hit_ratio", "ratio"},
	{"tcad.shed", "count"}, {"tcad.retries", "count"}, {"tcad.job_p50_ms", "ms"}, {"tcad.job_p95_ms", "ms"},
	{"runtime.allocs_per_event", "1/event"}, {"runtime.alloc_bytes_per_event", "B/event"},
	{"runtime.gc_cycles", "count"}, {"trace.overhead_x", "x"},
}

func init() {
	for _, id := range paperIDs {
		perLayer = append(perLayer, [2]string{"bench." + id + "_ms", "ms"})
	}
}

// gcFloor is a heap allocation the benchmark holds for its whole run and
// never touches, so it costs no resident memory: it puts a floor under the
// collector's heap goal. The simulator's live heap is a few MiB, so Go
// would otherwise keep the heap at its 4 MiB minimum goal and collect over
// a hundred times a second, and each cycle hands work between threads:
// with a busy loop in another process on a 2-vCPU VM, paper-figures' CPU
// time per pass rose by 25-45% without the floor and by 0-25% with it. A
// heap larger than the floor is collected as at the default GOGC.
// Allocation still costs CPU time and memory, and the traced run counts it
// (runtime.allocs_per_event, runtime.gc_cycles).
const gcFloor = 16 << 20

var gcBallast []byte

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 30, "how long the untraced run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced per-layer run")
	baseline := fs.String("baseline", "BENCH_PR2.json", "committed headline figures to compare with")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		logf("-seconds must be positive, -trace 0 or 1, and no arguments may follow the flags")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		logf("%v", err)
		return 2
	}
	want, err := os.ReadFile(*baseline)
	if err != nil {
		logf("%v", err)
		return 1
	}
	gcBallast = make([]byte, gcFloor)
	total := start()
	tl := newTally()
	m := metrics{}
	simErr := checkHeadlines(tl, want)
	if *trace == 1 {
		w.traceLayers(tl, m)
		probes(tl, m)
		for _, nu := range perLayer {
			if _, ok := m[nu[0]]; !ok {
				m.set(nu[0], nu[1], 0)
			}
		}
		writeShares(stdout, m)
	} else {
		endToEnd(w, tl, m, *seconds, total, stdout)
		m.set("sim_err_pct", "%", simErr)
	}
	for _, n := range sortedKeys(tl.failed) {
		fmt.Fprintf(stdout, "failed %-40s %d\n", n, tl.failed[n])
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{len(tl.wrong) == 0, tl.attempted, tl.failures(), m})
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	runtime.KeepAlive(gcBallast)
	return 0
}

// endToEnd measures set-up, then runs passes until the next one would
// overrun the time budget (at least two, so every run checks that a second
// pass reproduces the first). Each pass starts from a collected heap, so
// one pass's garbage is not collected on the next one's time. Every figure
// is the median over passes, so one pass slowed by a noisy host does not
// move it.
//
// A pass is the same work every time, so attempted and failed count the
// first pass's operations, and every later pass must fail the same checks
// as often: the counts depend on the seed alone, not on how many passes
// the host had time for.
//
// The result line carries CPU time. Wall time and job latency are printed
// for reading only: on a shared host they follow the other guests' load —
// between runs minutes apart, the same pass took from 8 to 18 s of wall
// time at the same CPU time.
func endToEnd(w workload, tl *tally, m metrics, seconds float64, total clock, stdout io.Writer) {
	m.set("setup_s", "s", setupSeconds(w, tl))
	var walls, cpus, p50s, p95s []float64
	var first string
	var firstOps *tally
	jobs := 0
	for {
		ops := newTally()
		runtime.GC()
		c, cpu0 := start(), cpuSeconds(clockProcessCPUTime)
		fp, ms := w.pass(ops)
		walls = append(walls, c.seconds())
		cpus = append(cpus, cpuSeconds(clockProcessCPUTime)-cpu0)
		p50s = append(p50s, quantile(ms, 0.50))
		p95s = append(p95s, quantile(ms, 0.95))
		jobs += len(ms)
		if len(walls) == 1 {
			first, firstOps = fp, ops
			tl.add(ops)
		} else {
			tl.wrong = append(tl.wrong, ops.wrong...)
			if fp != first {
				tl.mismatch("non-determinism: pass %d fingerprint %s, first pass %s", len(walls), fp, first)
			}
			if !ops.sameOps(firstOps) {
				tl.mismatch("non-determinism: pass %d failed %v of %d operations, first pass %v of %d",
					len(walls), ops.failed, ops.attempted, firstOps.failed, firstOps.attempted)
			}
		}
		if len(walls) >= 2 && total.seconds()+median(walls) > seconds {
			break
		}
	}
	m.set("cpu_s", "s", median(cpus))
	m.set("peak_rss_mb", "MB", peakRSSMB())
	fmt.Fprintf(stdout, "passes %d, jobs %d\n", len(walls), jobs)
	fmt.Fprintf(stdout, "cpu_s      %.4f s   (quartiles %.4f, %.4f)\n", median(cpus), quantile(cpus, 0.25), quantile(cpus, 0.75))
	fmt.Fprintf(stdout, "wall_s     %.4f s   (quartiles %.4f, %.4f)\n", median(walls), quantile(walls, 0.25), quantile(walls, 0.75))
	fmt.Fprintf(stdout, "job_p50_ms %.3f ms\njob_p95_ms %.3f ms\n", median(p50s), median(p95s))
}

// setupSeconds returns the median CPU time one set-up takes on the
// calling thread. A set-up lasts tens of microseconds to a few
// milliseconds, too short to time alone against the host's noise, so it is
// timed in batches of back-to-back set-ups that last about setupBatch
// each, every batch starting from a collected heap; the releases run after
// the batch, outside it. There are at least 15 batches and two seconds of
// them, at most 200 batches. The thread's own clock keeps the runtime's
// background threads, and the workers a set-up starts, out of the figure.
func setupSeconds(w workload, tl *tally) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	batch := func(n int) (float64, error) {
		releases := make([]func(), 0, n)
		defer func() {
			for _, r := range releases {
				r()
			}
		}()
		runtime.GC()
		cpu0 := cpuSeconds(clockThreadCPUTime)
		for i := 0; i < n; i++ {
			release, err := w.setUp()
			if release != nil {
				releases = append(releases, release)
			}
			if err != nil {
				return 0, err
			}
		}
		return (cpuSeconds(clockThreadCPUTime) - cpu0) / float64(n), nil
	}
	one, err := batch(1) // warms the code and sizes the batches
	if err != nil {
		tl.check("setup", err)
		return 0
	}
	n := int(math.Ceil(setupBatch / max(one, 1e-6)))
	var xs []float64
	all := start()
	for len(xs) < 200 && (len(xs) < 15 || all.seconds() < 2) {
		x, err := batch(n)
		if err != nil {
			tl.check("setup", err)
			break
		}
		xs = append(xs, x)
	}
	return median(xs)
}

// setupBatch is how long, in seconds, a batch of set-ups roughly lasts.
const setupBatch = 0.02

// paperRefs are the paper's headline numbers the simulator reproduces,
// against which sim_err_pct states its accuracy.
var paperRefs = []struct {
	name  string
	paper float64
	sim   func(b bench.BenchBaseline) float64
}{
	{"effective peak 3.66 GB/s", 3.66, func(bench.BenchBaseline) float64 {
		return pcie.Gen2x8.EffectiveBandwidth(pcie.DefaultMaxPayload).GBps()
	}},
	{"chained write peak 3.3 GB/s", 3.3, func(b bench.BenchBaseline) float64 { return b.PeakWriteGBps }},
	{"GPU read ceiling 0.83 GB/s", 0.83, func(b bench.BenchBaseline) float64 { return b.GPUReadGBps }},
	{"4 requests reach 70% of peak", 0.70, func(b bench.BenchBaseline) float64 { return b.Burst4GBps / b.PeakWriteGBps }},
	{"PIO loopback 782 ns", 0.782, func(b bench.BenchBaseline) float64 { return b.MinPingPongUS }},
}

// checkHeadlines reproduces the committed headline figures, which must
// match BENCH_PR2.json byte for byte, and returns the largest deviation of
// the simulated headlines from the paper's, in percent.
func checkHeadlines(tl *tally, want []byte) float64 {
	got := bench.CollectBaseline(tcanet.DefaultParams)
	var buf bytes.Buffer
	err := got.WriteJSON(&buf)
	if err == nil && !bytes.Equal(buf.Bytes(), want) {
		err = errors.New("headline figures differ from BENCH_PR2.json:\n" + buf.String())
	}
	tl.check("recorded:BENCH_PR2", err)
	worst := 0.0
	for _, r := range paperRefs {
		worst = math.Max(worst, 100*math.Abs(r.sim(got)-r.paper)/r.paper)
	}
	return worst
}

// writeShares prints the traced run's host-time split by layer.
func writeShares(w io.Writer, m metrics) {
	fmt.Fprintln(w, "host time by layer (share of the profiled replica's wall time)")
	for _, n := range []string{"sim.engine_share", "pcie.link_share", "pcie.switch_share", "peach2.dmac_share", "peach2.chip_share", "host.node_share"} {
		fmt.Fprintf(w, "  %-20s %6.1f%%\n", n, 100*m[n].Value)
	}
	fmt.Fprintln(w, "  (sim.engine_share is the untagged remainder: event loop, untagged events, profiler clock reads)")
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
