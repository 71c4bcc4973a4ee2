package main

import (
	"fmt"

	"tca/internal/bench"
	"tca/internal/obsv"
	"tca/internal/pcie"
	"tca/internal/sim"
	"tca/internal/tcanet"
)

// pingRounds is one pass of the ping-pong workload (3.2M events).
const pingRounds = 100_000

// pingEndPS is the simulated time at which pingRounds rounds end, recorded
// with the benchmark. The simulation is deterministic, so any other value
// means the model changed.
const pingEndPS = 157_212_800_000

// pioPingPong is bench.PerfPingPong's bare-engine PIO ping-pong between
// the two nodes of a ring: the engine loop at queue depth 2, host store
// and poll, the socket switch and PEACH2 forwarding. No DMA, no credit
// backlog, no observability — the control workload on which a DMAC or
// obsv change must show no change.
type pioPingPong struct{}

// pingRig is PerfPingPong's rig, built here so the benchmark can read the
// engine's clock and attach observers.
type pingRig struct {
	sc         *tcanet.SubCluster
	left       int
	dstG, srcG pcie.Addr
}

var ping, pong = []byte{1, 0, 0, 0, 0, 0, 0, 0}, []byte{2, 0, 0, 0, 0, 0, 0, 0}

// newPingRig builds the rig; attach, if not nil, wires observers into the
// sub-cluster before anything else.
func newPingRig(attach func(*tcanet.SubCluster)) (*pingRig, error) {
	sc, err := tcanet.BuildRing(sim.NewEngine(), 2, tcanet.DefaultParams)
	if err != nil {
		return nil, err
	}
	if attach != nil {
		attach(sc)
	}
	rig := &pingRig{sc: sc}
	dstBuf, err := sc.Node(1).AllocDMABuffer(8)
	if err != nil {
		return nil, err
	}
	if rig.dstG, err = sc.GlobalHostAddr(1, dstBuf); err != nil {
		return nil, err
	}
	srcBuf, err := sc.Node(0).AllocDMABuffer(8)
	if err != nil {
		return nil, err
	}
	if rig.srcG, err = sc.GlobalHostAddr(0, srcBuf); err != nil {
		return nil, err
	}
	sc.Node(1).Poll(pcie.Range{Base: dstBuf, Size: 8}, func(sim.Time) {
		sc.Node(1).Store(rig.srcG, pong)
	})
	sc.Node(0).Poll(pcie.Range{Base: srcBuf, Size: 8}, func(sim.Time) {
		if rig.left--; rig.left > 0 {
			sc.Node(0).Store(rig.dstG, ping)
		}
	})
	return rig, nil
}

func (rig *pingRig) kick(rounds int) {
	rig.left = rounds
	rig.sc.Node(0).Store(rig.dstG, ping)
}

// check verifies that every round completed and the run ended at the
// recorded simulated time.
func (rig *pingRig) check(tl *tally) {
	var err error
	if rig.left != 0 {
		err = fmt.Errorf("stalled with %d of %d rounds left", rig.left, pingRounds)
	}
	tl.check("pingpong:rounds", err)
	err = nil
	if end := int64(rig.sc.Engine().Now()); end != pingEndPS {
		err = fmt.Errorf("simulated end %d ps, recorded %d ps", end, pingEndPS)
	}
	tl.check("recorded:pingpong_end", err)
}

func (pioPingPong) setUp() (func(), error) {
	_, err := newPingRig(nil)
	return nil, err
}

func (pioPingPong) pass(tl *tally) (string, []float64) {
	c := start()
	rig, err := newPingRig(nil)
	if err != nil {
		tl.check("pingpong:build", err)
		return "", nil
	}
	rig.kick(pingRounds)
	eng := rig.sc.Engine()
	eng.Run()
	ms := c.ms()
	rig.check(tl)
	return fmt.Sprintf("%d/%d/%d", eng.Executed(), eng.QueueHighWater(), eng.Now()), []float64{ms}
}

func (pioPingPong) traceLayers(tl *tally, m metrics) {
	runs := replay(tl, m, "PingPong", func(r *fabricRun) error {
		var set *obsv.Set
		rig, err := newPingRig(func(sc *tcanet.SubCluster) { set = r.attach(sc, nil) })
		if err != nil {
			return err
		}
		rig.kick(pingRounds)
		r.drain(rig.sc, set)
		rig.check(tl)
		return nil
	})
	// The rig is PerfPingPong's: the program's own driver must execute the
	// same events.
	st := bench.PerfPingPong(tcanet.DefaultParams, pingRounds, nil)
	tl.sameCount("PerfPingPong events vs replica", st.Events, runs[0].events)
	tl.sameCount("PerfPingPong queue high-water vs replica", uint64(st.QueueHighWater), uint64(runs[0].hiWater))
}
