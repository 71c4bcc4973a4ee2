package main

import (
	"strings"

	"tca/internal/obsv"
	"tca/internal/pcie"
	"tca/internal/peach2"
	"tca/internal/prof"
	"tca/internal/sim"
	"tca/internal/tcanet"
)

// The traced run replays each workload on sub-clusters the benchmark
// builds itself through tcanet, so it can attach the program's existing
// observers from outside: the profiler through SubCluster.Profile for host
// time per component, and an obsv registry through SubCluster.Instrument
// for the layers' own counters. The same replica runs three times:
//
//   - bare: nothing attached; its wall time is the untraced reference;
//   - profiled: prof.Profiler attached; host time per component;
//   - counted: obsv counters attached and the engine stepped one event at
//     a time, integrating every link's credit queue over simulated time.
//
// Observation never changes simulation results, so all three runs must
// agree exactly on events, queue high-water, end time and link traffic.

type runMode int

const (
	modeBare runMode = iota
	modeProfiled
	modeCounted
)

// fabricRun accumulates one replica run over all the sub-clusters it
// builds.
type fabricRun struct {
	mode runMode
	p    *prof.Profiler
	// win brackets the engine runs for the allocation figures.
	win *allocWindow

	wallNS    float64
	events    uint64
	hiWater   int
	endPS     int64 // summed end times of every engine run
	linkTLPs  uint64
	linkBytes uint64
	dmaTLPs   uint64
	allocs    uint64
	allocB    uint64
	gcs       uint64
	// counted mode only
	creditWaitPS float64
	counters     map[string]uint64
}

func newFabricRun(mode runMode) *fabricRun {
	r := &fabricRun{mode: mode, win: newAllocWindow(), counters: map[string]uint64{}}
	if mode == modeProfiled {
		r.p = prof.New(prof.Options{SampleEvery: 1})
	}
	return r
}

// registryOnly is an obsv set with counters but no span recorder and no
// sampler: the cheapest way to read the layers' own counters.
func registryOnly() *obsv.Set { return &obsv.Set{Reg: obsv.NewRegistry()} }

// attach wires a freshly built sub-cluster before any traffic: set is the
// instrumentation the workload itself runs with (nil for none; counted
// mode then adds a registry-only set), and profiled mode registers every
// component with the profiler. It returns the set drain reads.
func (r *fabricRun) attach(sc *tcanet.SubCluster, set *obsv.Set) *obsv.Set {
	if set == nil && r.mode == modeCounted {
		set = registryOnly()
	}
	if set != nil {
		sc.Instrument(set)
	}
	if r.mode == modeProfiled {
		sc.Profile(r.p)
	}
	return set
}

// drain runs sc's engine until its queue empties and accumulates the
// run's figures. set is what attach returned.
func (r *fabricRun) drain(sc *tcanet.SubCluster, set *obsv.Set) {
	eng := sc.Engine()
	eng.ResetQueueHighWater()
	ev0 := eng.Executed()
	var ends []*pcie.Port
	if r.mode == modeCounted {
		ends = linkEnds(sc)
	}
	r.win.open()
	c := start()
	switch r.mode {
	case modeProfiled:
		r.p.Attach(eng)
		eng.Run()
		r.p.Detach()
	case modeCounted:
		r.creditWaitPS += drainIntegrating(eng, ends)
	default:
		eng.Run()
	}
	r.wallNS += c.ns()
	o, b, g := r.win.close()
	r.allocs += o
	r.allocB += b
	r.gcs += g
	r.events += eng.Executed() - ev0
	if hw := eng.QueueHighWater(); hw > r.hiWater {
		r.hiWater = hw
	}
	r.endPS += int64(eng.Now())
	for _, l := range links(sc) {
		tlps, bytes := l.Stats()
		r.linkTLPs += tlps[0] + tlps[1]
		r.linkBytes += uint64(bytes[0] + bytes[1])
	}
	for i := 0; i < sc.Nodes(); i++ {
		r.dmaTLPs += sc.Chip(i).Stats().DMATLPs
	}
	if set != nil {
		for _, cv := range set.Registry().Snapshot(eng.Now()).Counters {
			r.counters[cv.Name] += cv.Value
		}
	}
}

// drainIntegrating steps the engine to quiescence and returns the integral
// of the number of TLPs waiting for link credits (or, with a data-link
// layer, for replay-buffer room) over simulated time, in picoseconds —
// by Little's law, the total simulated time packets spent waiting.
func drainIntegrating(eng *sim.Engine, ends []*pcie.Port) float64 {
	queued := func() int {
		n := 0
		for _, p := range ends {
			n += p.Link().QueuedTLPs(p)
		}
		return n
	}
	var wait float64
	t, q := eng.Now(), queued()
	for eng.Step() {
		now := eng.Now()
		wait += float64(q) * float64(now-t)
		t, q = now, queued()
	}
	return wait
}

// links lists every PCIe link of the sub-cluster once: host-internal links
// below each socket switch and the PEACH2 ports' links.
func links(sc *tcanet.SubCluster) []*pcie.Link {
	seen := map[*pcie.Link]bool{}
	var out []*pcie.Link
	add := func(p *pcie.Port) {
		if p != nil && p.Connected() && !seen[p.Link()] {
			seen[p.Link()] = true
			out = append(out, p.Link())
		}
	}
	for i := 0; i < sc.Nodes(); i++ {
		for s := 0; s < 2; s++ {
			for _, p := range sc.Node(i).Socket(s).Ports() {
				add(p)
			}
		}
		for _, id := range []peach2.PortID{peach2.PortN, peach2.PortE, peach2.PortW, peach2.PortS} {
			add(sc.Chip(i).Port(id))
		}
	}
	return out
}

// linkEnds lists both ends of every link: each end owns one direction's
// credit queue.
func linkEnds(sc *tcanet.SubCluster) []*pcie.Port {
	var ends []*pcie.Port
	for _, l := range links(sc) {
		a, b := l.Ends()
		ends = append(ends, a, b)
	}
	return ends
}

// layerOf maps a profiler component name to the layer that owns it.
// Names follow SubCluster.Profile: "link:…" links, "nodeN.sockM" socket
// switches, "peach2-N/dmac" DMA controllers, "peach2-N" chips, "nodeN"
// hosts; "(untagged)" events belong to no component.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "link:"):
		return "pcie.link"
	case strings.HasSuffix(name, "/dmac"):
		return "peach2.dmac"
	case strings.HasPrefix(name, "peach2-"):
		return "peach2.chip"
	case strings.Contains(name, ".sock"):
		return "pcie.switch"
	case strings.HasPrefix(name, "node"):
		return "host.node"
	default:
		return "sim.engine"
	}
}

// shares splits the profiled run's wall time by layer. The engine share
// is what no component's handlers account for: the event loop itself,
// untagged events and the profiler's own clock reads.
func (r *fabricRun) shares() map[string]float64 {
	out := map[string]float64{"pcie.link": 0, "pcie.switch": 0, "peach2.dmac": 0, "peach2.chip": 0, "host.node": 0}
	if r.wallNS <= 0 {
		out["sim.engine"] = 0
		return out
	}
	tagged := 0.0
	for _, c := range r.p.Components() {
		l := layerOf(c.Name)
		if l == "sim.engine" {
			continue
		}
		s := float64(c.EstNS) / r.wallNS
		out[l] += s
		tagged += s
	}
	out["sim.engine"] = max(0, 1-tagged)
	return out
}

// replay runs a workload's replica once in each mode, checks that the
// three runs agree, and reports their per-layer metrics.
func replay(tl *tally, m metrics, what string, run func(*fabricRun) error) [3]*fabricRun {
	var runs [3]*fabricRun
	for i, mode := range []runMode{modeBare, modeProfiled, modeCounted} {
		runs[i] = newFabricRun(mode)
		tl.check("replica:"+what, run(runs[i]))
	}
	agree(tl, what, runs[0], runs[1])
	agree(tl, what, runs[0], runs[2])
	replicaMetrics(m, runs[0], runs[1], runs[2])
	return runs
}

// agree checks that two replica runs of the same work produced the same
// simulation: the observers must not have changed it, and it must not
// vary from run to run.
func agree(tl *tally, what string, a, b *fabricRun) {
	tl.sameCount(what+" events", a.events, b.events)
	tl.sameCount(what+" queue high-water", uint64(a.hiWater), uint64(b.hiWater))
	tl.sameCount(what+" end time", uint64(a.endPS), uint64(b.endPS))
	tl.sameCount(what+" link TLPs", a.linkTLPs, b.linkTLPs)
	tl.sameCount(what+" link bytes", a.linkBytes, b.linkBytes)
	tl.sameCount(what+" DMA write TLPs", a.dmaTLPs, b.dmaTLPs)
}

// replicaMetrics reports the per-layer metrics of a workload's three
// replica runs.
func replicaMetrics(m metrics, bare, profiled, counted *fabricRun) {
	sh := profiled.shares()
	m.set("sim.events", "count", float64(bare.events))
	m.set("sim.queue_high_water", "count", float64(bare.hiWater))
	m.set("sim.ns_per_event", "ns", bare.wallNS/float64(max(bare.events, 1)))
	m.set("sim.engine_share", "ratio", sh["sim.engine"])
	m.set("pcie.link_share", "ratio", sh["pcie.link"])
	m.set("pcie.switch_share", "ratio", sh["pcie.switch"])
	m.set("pcie.link_tlps", "count", float64(counted.linkTLPs))
	m.set("pcie.link_bytes", "B", float64(counted.linkBytes))
	m.set("pcie.credit_wait_sim_ns", "ns", counted.creditWaitPS/1000)
	m.set("peach2.dmac_share", "ratio", sh["peach2.dmac"])
	m.set("peach2.chip_share", "ratio", sh["peach2.chip"])
	m.set("peach2.dma_write_tlps", "count", float64(counted.counters["dma_write_tlps"]))
	m.set("peach2.dma_reads_sent", "count", float64(counted.counters["dma_reads_sent"]))
	m.set("host.node_share", "ratio", sh["host.node"])
	m.set("host.rc_dram_tlps", "count", float64(counted.counters["dram_write_tlps"]+counted.counters["dram_read_tlps"]))
	m.set("runtime.allocs_per_event", "1/event", float64(bare.allocs)/float64(max(bare.events, 1)))
	m.set("runtime.alloc_bytes_per_event", "B/event", float64(bare.allocB)/float64(max(bare.events, 1)))
	m.set("runtime.gc_cycles", "count", float64(bare.gcs))
	m.set("trace.overhead_x", "x", profiled.wallNS/max(bare.wallNS, 1))
}
