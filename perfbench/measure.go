package main

import (
	"fmt"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// clock is the benchmark's own span timer: every end-to-end and per-layer
// time is a monotonic time.Since around one call into the program.
type clock struct{ t0 time.Time }

func start() clock { return clock{time.Now()} }

func (c clock) seconds() float64 { return time.Since(c.t0).Seconds() }
func (c clock) ms() float64      { return float64(time.Since(c.t0).Nanoseconds()) / 1e6 }
func (c clock) ns() float64      { return float64(time.Since(c.t0).Nanoseconds()) }

// allocWindow reads the runtime's cumulative allocation and GC counters.
// The samples are allocated once, up front, and read with no pprof label
// scope around them, so opening and closing a window allocates nothing
// itself: an empty window reads exactly zero.
type allocWindow struct {
	samples [3]rtmetrics.Sample
	objs    uint64
	bytes   uint64
	gcs     uint64
}

func newAllocWindow() *allocWindow {
	w := &allocWindow{}
	w.samples[0].Name = "/gc/heap/allocs:objects"
	w.samples[1].Name = "/gc/heap/allocs:bytes"
	w.samples[2].Name = "/gc/cycles/total:gc-cycles"
	return w
}

func (w *allocWindow) read() (objs, bytes, gcs uint64) {
	rtmetrics.Read(w.samples[:])
	return w.samples[0].Value.Uint64(), w.samples[1].Value.Uint64(), w.samples[2].Value.Uint64()
}

// open starts a window; close returns what was allocated since open.
func (w *allocWindow) open() { w.objs, w.bytes, w.gcs = w.read() }

func (w *allocWindow) close() (objs, bytes, gcs uint64) {
	o, b, g := w.read()
	return o - w.objs, b - w.bytes, g - w.gcs
}

// peakRSSMB is the process's peak resident set so far (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// Linux CPU-time clocks for clock_gettime.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

// cpuSeconds reads a CPU-time clock to the nanosecond: the time all the
// process's threads, or only the calling thread, have run. Unlike wall
// time it leaves out the time the hypervisor gives the vCPU to other
// guests (steal), which on a shared host varies from run to run by more
// than the bounds the benchmark sets.
func cpuSeconds(clock uintptr) float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Nano()) / 1e9
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified; 0 when xs is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values; the result line prints it as is.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// tally counts the run's operations and its failed checks by name.
// A failed operation is a check on the program's output that did not
// hold; it counts towards failed/attempted. A harness finding (a count
// that did not reproduce, a value that drifted from the recorded one)
// also makes the run incorrect.
type tally struct {
	attempted int
	failed    map[string]int
	wrong     []string
}

func newTally() *tally { return &tally{failed: map[string]int{}} }

// op records one attempted operation; a non-nil err fails it under name.
func (t *tally) op(name string, err error) {
	t.attempted++
	if err != nil {
		t.failed[name]++
		if t.failed[name] == 1 {
			logf("failed %s: %v", name, err)
		}
	}
}

// check records one attempted operation whose failure also makes the run
// incorrect: a shape check, a value recorded with the benchmark, a
// replica that must reproduce the program's own result.
func (t *tally) check(name string, err error) {
	t.op(name, err)
	if err != nil {
		t.wrong = append(t.wrong, name)
	}
}

// mismatch marks the run incorrect.
func (t *tally) mismatch(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	t.wrong = append(t.wrong, msg)
	logf("incorrect: %s", msg)
}

// add merges another tally's operations and findings into t.
func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	for n, c := range o.failed {
		t.failed[n] += c
	}
	t.wrong = append(t.wrong, o.wrong...)
}

// sameOps reports whether t and o attempted as many operations and failed
// the same checks as often.
func (t *tally) sameOps(o *tally) bool {
	if t.attempted != o.attempted || len(t.failed) != len(o.failed) {
		return false
	}
	for n, c := range t.failed {
		if o.failed[n] != c {
			return false
		}
	}
	return true
}

func (t *tally) failures() int {
	n := 0
	for _, c := range t.failed {
		n += c
	}
	return n
}

// sameCount records a deterministic count from a second run of the same
// work; any difference is non-determinism, never noise.
func (t *tally) sameCount(what string, first, again uint64) {
	if first != again {
		t.mismatch("non-determinism: %s was %d, then %d", what, first, again)
	}
}
