package main

import (
	"errors"
	"fmt"
	"hash/fnv"

	"tca/internal/bench"
	"tca/internal/core"
	"tca/internal/peach2"
	"tca/internal/sim"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// ringSizes are ExtRingScaling's sub-cluster sizes.
var ringSizes = []int{2, 4, 8, 16}

// ringPerFlow is ExtRingScaling's per-flow bandwidth column (GB/s) for
// each ring size, recorded with the benchmark. The simulation is
// deterministic, so any other value means the model changed.
var ringPerFlow = map[string]string{"2": "3.315", "4": "1.812", "8": "0.910", "16": "0.456"}

// ringContention runs bench.ExtRingScaling: on rings of 2, 4, 8 and 16
// nodes every node streams a 255×4 KiB chain to its antipode at once, so
// link credit queues back up and the engine queue runs deep. There are no
// DMA reads.
type ringContention struct{}

// setUp builds and wires each ring the experiment measures.
func (ringContention) setUp() (func(), error) {
	for _, n := range ringSizes {
		sc, err := tcanet.BuildRing(sim.NewEngine(), n, tcanet.DefaultParams)
		if err != nil {
			return nil, err
		}
		if _, err := core.NewComm(sc); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

func (ringContention) pass(tl *tally) (string, []float64) {
	c := start()
	t := bench.ExtRingScaling(tcanet.DefaultParams)
	ms := c.ms()
	tl.check("recorded:ExtRingScaling", checkRingTable(t))
	h := fnv.New64a()
	if err := t.CSV(h); err != nil {
		tl.mismatch("ExtRingScaling: %v", err)
	}
	return fmt.Sprintf("%016x", h.Sum64()), []float64{ms}
}

// checkRingTable compares the experiment's per-flow bandwidths with the
// recorded ones.
func checkRingTable(t *bench.Table) error {
	var errs []error
	for _, n := range ringSizes {
		x := fmt.Sprint(n)
		got, err := t.Value(x, "per-flow")
		if err != nil || bench.GB(got) != ringPerFlow[x] {
			errs = append(errs, fmt.Errorf("%s nodes: per-flow %s GB/s, recorded %s (%v)", x, bench.GB(got), ringPerFlow[x], err))
		}
	}
	return errors.Join(errs...)
}

func (ringContention) traceLayers(tl *tally, m metrics) {
	replay(tl, m, "ExtRingScaling", ringReplica)
}

// ringReplica reruns ExtRingScaling's traffic under r's observer and
// checks each ring's per-flow bandwidth against the recorded value.
func ringReplica(r *fabricRun) error {
	const size, count = 4096, 255
	total := units.ByteSize(size * count)
	var errs []error
	for _, n := range ringSizes {
		sc, err := tcanet.BuildRing(sim.NewEngine(), n, tcanet.DefaultParams)
		if err != nil {
			return err
		}
		set := r.attach(sc, nil)
		comm, err := core.NewComm(sc)
		if err != nil {
			return err
		}
		done := 0
		var last sim.Time
		for i := 0; i < n; i++ {
			if err := sc.Chip(i).InternalMemory().Write(0, make([]byte, size)); err != nil {
				return err
			}
			dst := (i + n/2) % n
			buf, err := sc.Node(dst).AllocDMABuffer(total)
			if err != nil {
				return err
			}
			g, err := sc.GlobalHostAddr(dst, buf)
			if err != nil {
				return err
			}
			if err := comm.StartChain(i, writeChain(uint64(g), size, count), func(now sim.Time) {
				done++
				last = max(last, now)
			}); err != nil {
				return err
			}
		}
		r.drain(sc, set)
		if done != n {
			return fmt.Errorf("%d nodes: %d of %d flows completed", n, done, n)
		}
		got := bench.GB(units.Rate(total, last.Elapsed()).GBps())
		if want := ringPerFlow[fmt.Sprint(n)]; got != want {
			errs = append(errs, fmt.Errorf("%d nodes: replica per-flow %s GB/s, recorded %s", n, got, want))
		}
	}
	return errors.Join(errs...)
}

// writeChain is count size-byte writes from internal-memory offset 0 to
// consecutive destinations from dst.
func writeChain(dst uint64, size units.ByteSize, count int) []peach2.Descriptor {
	descs := make([]peach2.Descriptor, count)
	for i := range descs {
		descs[i] = peach2.Descriptor{Kind: peach2.DescWrite, Len: size, Dst: dst + uint64(i)*uint64(size)}
	}
	return descs
}
