package main

import (
	"tca/internal/core"
	"tca/internal/memory"
	"tca/internal/obsv"
	"tca/internal/pcie"
	"tca/internal/scenariogen"
	"tca/internal/sim"
	"tca/internal/tcanet"
)

// Layer probes: fixed-size calls into one layer's public functions, each
// reported as the median over probeReps repeats. They do not depend on the
// workload, so every traced run reports them.
const probeReps = 15

func medianOf(f func() float64) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// sink keeps probed results alive so the calls are not optimised away.
var sink any

type nopAction struct{}

func (nopAction) RunAction(sim.Time) {}

// stepNS is one AtAction+Step pair with depth events pending: depth-1
// far-future events stay queued while one near event is pushed and popped.
func stepNS(depth int) float64 {
	const ops = 200_000
	eng := sim.NewEngine()
	for i := 1; i < depth; i++ {
		eng.AtAction(0, sim.Time(1)<<60, nopAction{})
	}
	return medianOf(func() float64 {
		c := start()
		for i := 0; i < ops; i++ {
			eng.AtAction(0, eng.Now()+1, nopAction{})
			eng.Step()
		}
		return c.ns() / ops
	})
}

// routeNS is one AddressMap lookup in a 16-window map, the size of a
// 16-node sub-cluster's global map.
func routeNS() float64 {
	const ops, windows, span = 1_000_000, 16, 32 << 30
	var m pcie.AddressMap
	for i := 0; i < windows; i++ {
		m.MustAdd(pcie.Range{Base: pcie.Addr(i * span), Size: span}, i)
	}
	return medianOf(func() float64 {
		c := start()
		for i := 0; i < ops; i++ {
			t, _, _ := m.Lookup(pcie.Addr((i%windows)*span + i&0xfff))
			sink = t
		}
		return c.ns() / ops
	})
}

// tagTableNS is one 4 KiB read through a TagTable: a tag allocation and
// sixteen 256-byte completions.
func tagTableNS(tl *tally) float64 {
	const reads, chunks = 20_000, 16
	tt := pcie.NewTagTable(32)
	cpl := make([]pcie.TLP, chunks)
	for i := range cpl {
		cpl[i] = pcie.TLP{Kind: pcie.CplD, Data: make([]byte, 256), Last: i == chunks-1}
	}
	done := 0
	onDone := func([]byte) { done++ }
	ns := medianOf(func() float64 {
		c := start()
		for r := 0; r < reads; r++ {
			tag, ok := tt.Alloc(4096, onDone)
			if !ok {
				return 0
			}
			for i := range cpl {
				cpl[i].Tag = tag
				if err := tt.HandleCompletion(&cpl[i]); err != nil {
					tl.check("probe:tagtable", err)
					return 0
				}
			}
		}
		return c.ns() / reads
	})
	if done != probeReps*reads {
		tl.mismatch("tag-table probe completed %d of %d reads", done, probeReps*reads)
	}
	return ns
}

// ramNS is one 4 KiB RAM.ReadBytes (read) or RAM.Write (write), cycling
// over 1 MiB of resident memory. Every access is in range, so the errors
// RAM returns for out-of-range offsets cannot occur.
func ramNS(write bool) float64 {
	const ops, size, span = 20_000, 4096, 1 << 20
	ram := memory.NewRAM(span)
	buf := make([]byte, size)
	for off := 0; off < span; off += size {
		_ = ram.Write(uint64(off), buf)
	}
	return medianOf(func() float64 {
		c := start()
		for i := 0; i < ops; i++ {
			off := uint64(i*size) % span
			if write {
				_ = ram.Write(off, buf)
			} else {
				b, _ := ram.ReadBytes(off, size)
				sink = b
			}
		}
		return c.ns() / ops
	})
}

func probes(tl *tally, m metrics) {
	m.set("sim.step_ns.depth2", "ns", stepNS(2))
	m.set("sim.step_ns.depth1k", "ns", stepNS(1024))
	m.set("pcie.route_ns", "ns", routeNS())
	m.set("pcie.tagtable_ns", "ns", tagTableNS(tl))
	m.set("memory.read_ns.4k", "ns", ramNS(false))
	m.set("memory.write_ns.4k", "ns", ramNS(true))

	win := newAllocWindow()
	var newSetB uint64
	m.set("obsv.newset_ms", "ms", medianOf(func() float64 {
		win.open()
		c := start()
		sink = obsv.NewSet(1 << 16)
		ms := c.ms()
		_, newSetB, _ = win.close()
		return ms
	}))
	m.set("obsv.newset_mb", "MB", float64(newSetB)/1e6)

	m.set("tcanet.build_ms.n16", "ms", medianOf(func() float64 {
		c := start()
		sc, err := tcanet.BuildRing(sim.NewEngine(), 16, tcanet.DefaultParams)
		tl.check("probe:build", err)
		sink = sc
		return c.ms()
	}))
	m.set("core.newcomm_ms", "ms", medianOf(func() float64 {
		sc, err := tcanet.BuildRing(sim.NewEngine(), 16, tcanet.DefaultParams)
		if err != nil {
			return 0
		}
		c := start()
		comm, err := core.NewComm(sc)
		ms := c.ms()
		tl.check("probe:newcomm", err)
		sink = comm
		return ms
	}))
	m.set("obsv.overhead_x", "x", obsvOverhead(tl))

	var genUS []float64
	for i := int64(0); i < 200; i++ {
		c := start()
		sink = scenariogen.Generate(i)
		genUS = append(genUS, c.ns()/1e3)
	}
	m.set("scenariogen.generate_us", "us", median(genUS))
}

// obsvOverhead is the wall time of a 2000-round ping-pong with an obsv set
// (1<<16 span events) attached, over the same ping-pong bare; set-up is
// outside both timings.
func obsvOverhead(tl *tally) float64 {
	const rounds = 2000
	timed := func(instrument bool) float64 {
		rig, err := newPingRig(func(sc *tcanet.SubCluster) {
			if instrument {
				sc.Instrument(obsv.NewSet(1 << 16))
			}
		})
		if err != nil {
			tl.check("probe:obsv", err)
			return 1
		}
		c := start()
		rig.kick(rounds)
		rig.sc.Engine().Run()
		return c.ns()
	}
	return medianOf(func() float64 { return timed(true) }) / medianOf(func() float64 { return timed(false) })
}
