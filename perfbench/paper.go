package main

import (
	"errors"
	"fmt"
	"hash/fnv"

	"tca/internal/bench"
	"tca/internal/core"
	"tca/internal/pcie"
	"tca/internal/peach2"
	"tca/internal/sim"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// paperIDs is the paper's own evaluation, in bench.All order.
var paperIDs = []string{"TableI", "TableII", "TheoreticalPeak", "Fig7", "Fig8", "Fig9", "LatencyPIO", "Fig12", "Baseline"}

// paperFigures runs every experiment of the paper's evaluation with its
// shape check: uncontended two-node chained DMA to CPU and GPU memory in
// both directions, so the DMAC, TagTable, RAM and GPU BAR paths carry the
// work and links never back up.
type paperFigures struct {
	exps []bench.Experiment
}

func newPaperFigures() (*paperFigures, error) {
	w := &paperFigures{}
	for _, id := range paperIDs {
		e, ok := bench.Find(id)
		if !ok {
			return nil, fmt.Errorf("experiment %s is not registered", id)
		}
		w.exps = append(w.exps, e)
	}
	return w, nil
}

// setUp builds the two-node rig every figure measurement starts from.
func (w *paperFigures) setUp() (func(), error) {
	sc, err := tcanet.BuildRing(sim.NewEngine(), 2, tcanet.DefaultParams)
	if err != nil {
		return nil, err
	}
	_, err = core.NewComm(sc)
	return nil, err
}

// pass runs each experiment once as one job; the fingerprint is the CSV of
// every table.
func (w *paperFigures) pass(tl *tally) (string, []float64) {
	h := fnv.New64a()
	jobs := make([]float64, 0, len(w.exps))
	for _, e := range w.exps {
		c := start()
		t := e.Run(tcanet.DefaultParams)
		var err error
		if e.Check != nil {
			err = e.Check(t)
		}
		jobs = append(jobs, c.ms())
		tl.check("shape:"+e.ID, err)
		if err := t.CSV(h); err != nil {
			tl.mismatch("%s: %v", e.ID, err)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), jobs
}

// traceLayers times each experiment as its own span and replays the Fig. 7
// sweep — the workload's DMA path — on rigs the benchmark builds.
func (w *paperFigures) traceLayers(tl *tally, m metrics) {
	var fig7 *bench.Table
	for _, e := range w.exps {
		c := start()
		t := e.Run(tcanet.DefaultParams)
		m.set("bench."+e.ID+"_ms", "ms", c.ms())
		if e.ID == "Fig7" {
			fig7 = t
		}
	}
	replay(tl, m, "Fig7", func(r *fabricRun) error { return fig7Replica(r, fig7) })
}

// fig7Replica reruns bench.Fig7's 255-descriptor chains (every size; CPU
// and GPU; write and read) under r's observer and checks each bandwidth
// against the experiment's own table.
func fig7Replica(r *fabricRun, want *bench.Table) error {
	cols := []string{"CPU write", "CPU read", "GPU write", "GPU read"}
	var errs []error
	for _, size := range bench.Fig7Sizes {
		for ci, gpu := range []bool{false, false, true, true} {
			read := ci%2 == 1
			bw, err := localChain(r, gpu, read, size, 255)
			if err != nil {
				return err
			}
			x := units.ByteSize(size).String()
			if cell, err := want.Value(x, cols[ci]); err != nil || bench.GB(cell) != bench.GB(bw.GBps()) {
				errs = append(errs, fmt.Errorf("Fig7 %s %s: replica %s GB/s, experiment %v (%v)", x, cols[ci], bench.GB(bw.GBps()), cell, err))
			}
		}
	}
	return errors.Join(errs...)
}

// localChain is bench's local chained-DMA measurement on a fresh two-node
// rig: count descriptors of size bytes between PEACH2 on node 0 and that
// node's host or GPU memory, timed from driver activation to the
// completion interrupt.
func localChain(r *fabricRun, gpu, read bool, size units.ByteSize, count int) (units.Bandwidth, error) {
	sc, err := tcanet.BuildRing(sim.NewEngine(), 2, tcanet.DefaultParams)
	if err != nil {
		return 0, err
	}
	set := r.attach(sc, nil)
	comm, err := core.NewComm(sc)
	if err != nil {
		return 0, err
	}
	total := size * units.ByteSize(count)
	var base pcie.Addr
	if gpu {
		b, err := comm.RegisterGPUBuffer(0, 0, total)
		if err != nil {
			return 0, err
		}
		base = b.Bus
	} else if base, err = sc.Node(0).AllocDMABuffer(total); err != nil {
		return 0, err
	}
	descs := make([]peach2.Descriptor, count)
	for i := range descs {
		at := uint64(base) + uint64(i)*uint64(size)
		if read {
			descs[i] = peach2.Descriptor{Kind: peach2.DescRead, Len: size, Src: at}
		} else {
			descs[i] = peach2.Descriptor{Kind: peach2.DescWrite, Len: size, Dst: at}
		}
	}
	if !read {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		if err := sc.Chip(0).InternalMemory().Write(0, payload); err != nil {
			return 0, err
		}
	}
	var end sim.Time
	if err := comm.StartChain(0, descs, func(now sim.Time) { end = now }); err != nil {
		return 0, err
	}
	r.drain(sc, set)
	if end == 0 {
		return 0, errors.New("chain never completed")
	}
	return units.Rate(total, end.Elapsed()), nil
}
