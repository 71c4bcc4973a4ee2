package bench

import (
	"errors"
	"fmt"

	"tca/internal/core"
	"tca/internal/fault"
	"tca/internal/obsv"
	"tca/internal/pcie"
	"tca/internal/peach2"
	"tca/internal/prof"
	"tca/internal/sim"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// The paper's evaluation drives three workloads: the §IV-B1 PIO flag
// ping-pong, multi-hop ring forwarding (Fig. 10) and chained DMA
// (Figs. 7–9). Each is written once below. A run builds the ring, wires in
// the attachments the caller passed, lays out the workload's buffers and
// drives the engine. Spans (Run.Trace), latency anatomy (Run.Fleet),
// telemetry (Run.Telemetry), metrics (Run.Snapshot) and host time
// (Run.Stats) are views of that one run.

// SpanCap bounds the span recorder of a traced run; the largest traced
// workload (a 255-descriptor chain) records well under this.
const SpanCap = 8192

// Attach lists what a run wires into its ring. The zero value runs a bare
// engine.
type Attach struct {
	// Set records spans and metrics.
	Set *obsv.Set
	// Prof attributes host time to components.
	Prof *prof.Profiler
	// Fault is a fault.ParseScenario spec played out with Seed, with the
	// DLL on every cable and NIOS auto-failover armed; "" is a perfect
	// fabric.
	Fault string
	Seed  int64
	// Sample is the telemetry sampler's interval (0 disables it). The
	// sampler needs Set; with Prof it also records a host-time series.
	Sample units.Duration
}

// Run is one workload run: the rig it ran on and what its views read.
type Run struct {
	Eng *sim.Engine
	SC  *tcanet.SubCluster
	Set *obsv.Set
	// Txns are the traced transactions in issue order (none without Set):
	// ping, pong, ping, ... for a ping-pong, one per store or chain
	// otherwise.
	Txns []uint64
	// End is when the workload's last leg completed; Done counts the
	// completed rounds, stores or chains; Moved is the DMA payload carried.
	End   sim.Time
	Done  int
	Moved units.ByteSize
	// Stats measures the engine run on the host.
	Stats prof.RunStats

	prof   *prof.Profiler
	sample units.Duration
}

// Workload is a runnable workload description: PingPong, Forward or
// Chain.
type Workload interface {
	// Validate reports a description no run could carry out.
	Validate() error
	// Run executes the workload once on a fresh ring with the given
	// attachments. A run that fails part-way returns what it has with
	// the error.
	Run(prm tcanet.Params, a Attach) (*Run, error)
	// drive lays out the workload's buffers on r's ring and runs it.
	drive(r *Run) error
}

// PingPong is the §IV-B1 flag ping-pong: Src stores round r's stamp into
// slot r of a buffer on Dst, Dst's poll loop answers with a store into
// slot r on Src, and Src's poll loop starts round r+1.
type PingPong struct {
	Nodes, Src, Dst, Rounds int
}

// Forward streams Stores sequential PIO flag stores from Src to Dst; each
// store launches when Dst's poll loop observes the previous one, so every
// store pays the full multi-hop forwarding path.
type Forward struct {
	Nodes, Src, Dst, Stores int
}

// Chain runs Chains back-to-back DMA chains, each of Count write
// descriptors of Size bytes from Src's PEACH2 internal memory into a host
// buffer on Dst. A chain starts from the previous one's completion
// interrupt, so chains never overlap.
type Chain struct {
	Nodes, Src, Dst int
	Size            units.ByteSize
	Count, Chains   int
	// Stride spaces the descriptors' destinations (0 packs them at Size).
	Stride units.ByteSize
}

// Validate checks the ring and the round count.
func (w PingPong) Validate() error {
	return validate("ping-pong", w.Nodes, w.Src, w.Dst, count{"rounds", w.Rounds})
}

// Validate checks the ring and the store count.
func (w Forward) Validate() error {
	return validate("forward", w.Nodes, w.Src, w.Dst, count{"stores", w.Stores})
}

// Validate checks the ring, the sizes, and that a chain fits the driver's
// descriptor table.
func (w Chain) Validate() error {
	err := validate("chain-dma", w.Nodes, w.Src, w.Dst,
		count{"size", int(w.Size)}, count{"count", w.Count}, count{"chains", w.Chains})
	if err == nil && w.Count > core.MaxChain {
		err = fmt.Errorf("chain-dma: a chain of %d descriptors exceeds the %d-entry table", w.Count, core.MaxChain)
	}
	return err
}

type count struct {
	name string
	v    int
}

func validate(what string, nodes, src, dst int, counts ...count) error {
	if nodes < tcanet.MinNodes || nodes > tcanet.MaxNodes {
		return fmt.Errorf("%s: nodes %d outside [%d, %d]", what, nodes, tcanet.MinNodes, tcanet.MaxNodes)
	}
	if src == dst || src < 0 || dst < 0 || src >= nodes || dst >= nodes {
		return fmt.Errorf("%s: need distinct src and dst inside the %d-node ring (got %d, %d)", what, nodes, src, dst)
	}
	for _, c := range counts {
		if c.v < 1 {
			return fmt.Errorf("%s: %s %d must be at least 1", what, c.name, c.v)
		}
	}
	return nil
}

// Run executes the ping-pong and checks that every slot on both sides
// holds its round's stamp.
func (w PingPong) Run(prm tcanet.Params, a Attach) (*Run, error) {
	return run(w, w.Nodes, prm, a)
}

// Run executes the forward stream.
func (w Forward) Run(prm tcanet.Params, a Attach) (*Run, error) {
	return run(w, w.Nodes, prm, a)
}

// Run executes the chains.
func (w Chain) Run(prm tcanet.Params, a Attach) (*Run, error) {
	return run(w, w.Nodes, prm, a)
}

func run(w Workload, nodes int, prm tcanet.Params, a Attach) (*Run, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	r, err := newRun(nodes, prm, a)
	if err != nil {
		return nil, err
	}
	return r, w.drive(r)
}

// newRun builds an n-node ring and applies the attachments in a fixed
// order: spans and metrics, faults, profiler, sampler.
func newRun(n int, prm tcanet.Params, a Attach) (*Run, error) {
	if a.Sample > 0 && a.Set == nil {
		return nil, errors.New("bench: sampling needs an obsv set")
	}
	var fp fault.Profile
	if a.Fault != "" {
		var err error
		if fp, err = fault.ParseScenario(a.Fault, a.Seed); err != nil {
			return nil, err
		}
	}
	eng := sim.NewEngine()
	sc, err := tcanet.BuildRing(eng, n, prm)
	if err != nil {
		return nil, err
	}
	if a.Set != nil {
		sc.Instrument(a.Set)
	}
	if a.Fault != "" {
		inj := fault.New(fp)
		inj.Instrument(a.Set)
		sc.InjectFaults(inj, pcie.DefaultDLLParams())
		sc.EnableAutoFailover(0)
	}
	if a.Prof != nil {
		sc.Profile(a.Prof)
	}
	if a.Sample > 0 {
		a.Set.Sampler().SetComp(a.Prof.Component("obsv/sampler"))
		a.Prof.RecordHostSeries(a.Set.Sampler().Timeline(), hostSeriesCap)
	}
	return &Run{Eng: eng, SC: sc, Set: a.Set, prof: a.Prof, sample: a.Sample}, nil
}

// hostSeriesCap bounds the profiler's cumulative host-time series; one
// point lands per timed sample, so the ring must hold a run's worth.
const hostSeriesCap = 8192

// measure starts the sampler and runs the engine to quiescence under the
// profiler, after start injects the first event.
func (r *Run) measure(scenario string, start func()) {
	if r.sample > 0 {
		r.SC.StartTelemetry(r.sample)
	}
	r.Stats = r.prof.Measure(scenario, r.Eng, func() {
		start()
		r.Eng.Run()
	})
}

// track records a traced transaction (uninstrumented stores return 0).
func (r *Run) track(txn uint64) {
	if txn != 0 {
		r.Txns = append(r.Txns, txn)
	}
}

// hostBuffer allocates size bytes of node's host memory and returns its
// local bus address and global address. It zero-fills the buffer, so the
// sparse RAM allocates its pages during set-up and not inside a measured
// run (the perf gates count a run's heap allocations).
func (r *Run) hostBuffer(node int, size units.ByteSize) (pcie.Addr, pcie.Addr, error) {
	buf, err := r.SC.Node(node).AllocDMABuffer(size)
	if err != nil {
		return 0, 0, err
	}
	if err := r.SC.Node(node).WriteLocal(buf, make([]byte, size)); err != nil {
		return 0, 0, err
	}
	g, err := r.SC.GlobalHostAddr(node, buf)
	return buf, g, err
}

func (w PingPong) drive(r *Run) error {
	size := units.ByteSize(8 * w.Rounds)
	dstBuf, dstG, err := r.hostBuffer(w.Dst, size)
	if err != nil {
		return err
	}
	srcBuf, srcG, err := r.hostBuffer(w.Src, size)
	if err != nil {
		return err
	}
	src, dst := r.SC.Node(w.Src), r.SC.Node(w.Dst)
	r.Txns = make([]uint64, 0, 2*w.Rounds)
	var ping, pong [8]byte
	answered := 0
	dst.Poll(pcie.Range{Base: dstBuf, Size: uint64(size)}, func(sim.Time) {
		k := answered
		answered++
		r.track(dst.StoreTxn(srcG+pcie.Addr(8*k), stamp(&pong, pongTag, k)))
	})
	src.Poll(pcie.Range{Base: srcBuf, Size: uint64(size)}, func(now sim.Time) {
		r.End = now
		if r.Done++; r.Done < w.Rounds {
			r.track(src.StoreTxn(dstG+pcie.Addr(8*r.Done), stamp(&ping, pingTag, r.Done)))
		}
	})
	r.measure("pingpong", func() { r.track(src.StoreTxn(dstG, stamp(&ping, pingTag, 0))) })
	if r.Done != w.Rounds {
		return fmt.Errorf("bench: ping-pong node%d<->node%d stalled after %d/%d rounds", w.Src, w.Dst, r.Done, w.Rounds)
	}
	for k := 0; k < w.Rounds; k++ {
		if err := checkSlot(r.SC, w.Dst, dstBuf, k, stamp(&ping, pingTag, k)); err != nil {
			return err
		}
		if err := checkSlot(r.SC, w.Src, srcBuf, k, stamp(&pong, pongTag, k)); err != nil {
			return err
		}
	}
	return nil
}

const pingTag, pongTag = 0xA0, 0xB0

// stamp fills b with round r's 8-byte marker: a leg tag, the round number,
// and a fixed sentinel tail so corruption anywhere in the payload is
// caught. The store copies the payload, so one buffer serves every round.
func stamp(b *[8]byte, tag byte, r int) []byte {
	*b = [8]byte{tag, byte(r), byte(r >> 8), 0x5A, 0xC3, 0x3C, 0xA5, tag ^ 0xFF}
	return b[:]
}

func checkSlot(sc *tcanet.SubCluster, node int, buf pcie.Addr, r int, want []byte) error {
	got, err := sc.Node(node).ReadLocal(buf+pcie.Addr(8*r), 8)
	if err != nil {
		return err
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("bench: node %d round %d payload byte %d = %#x, want %#x (corrupted in flight)",
				node, r, i, got[i], want[i])
		}
	}
	return nil
}

func (w Forward) drive(r *Run) error {
	buf, g, err := r.hostBuffer(w.Dst, 8)
	if err != nil {
		return err
	}
	src := r.SC.Node(w.Src)
	flag := []byte{1, 0, 0, 0, 0, 0, 0, 0}
	r.Txns = make([]uint64, 0, w.Stores)
	r.SC.Node(w.Dst).Poll(pcie.Range{Base: buf, Size: 8}, func(now sim.Time) {
		r.End = now
		if r.Done++; r.Done < w.Stores {
			r.track(src.StoreTxn(g, flag))
		}
	})
	r.measure("forward", func() { r.track(src.StoreTxn(g, flag)) })
	if r.Done != w.Stores {
		return fmt.Errorf("bench: forward node%d->node%d stalled after %d/%d stores", w.Src, w.Dst, r.Done, w.Stores)
	}
	return nil
}

func (w Chain) drive(r *Run) error {
	r.Done = 0 // MetricsReport drives a chain after a forward on one ring
	comm, err := core.NewComm(r.SC)
	if err != nil {
		return err
	}
	if err := r.SC.Chip(w.Src).InternalMemory().Write(0, make([]byte, w.Size)); err != nil {
		return err
	}
	stride := w.Stride
	if stride == 0 {
		stride = w.Size
	}
	buf, err := r.SC.Node(w.Dst).AllocDMABuffer(stride * units.ByteSize(w.Count))
	if err != nil {
		return err
	}
	g, err := r.SC.GlobalHostAddr(w.Dst, buf)
	if err != nil {
		return err
	}
	descs := make([]peach2.Descriptor, w.Count)
	for i := range descs {
		descs[i] = peach2.Descriptor{Kind: peach2.DescWrite, Len: w.Size, Dst: uint64(g) + uint64(i)*uint64(stride)}
	}
	r.Txns = make([]uint64, 0, w.Chains)
	var startErr error
	var done func(now sim.Time)
	done = func(now sim.Time) {
		r.track(r.SC.Chip(w.Src).DMAC().LastChainTxn())
		r.End = now
		if r.Done++; r.Done < w.Chains && startErr == nil {
			startErr = comm.StartChain(w.Src, descs, done)
		}
	}
	if err := comm.StartChain(w.Src, descs, done); err != nil {
		return err
	}
	r.measure("chain_dma", func() {})
	if startErr != nil {
		return startErr
	}
	if r.Done != w.Chains {
		return fmt.Errorf("bench: chain-DMA node%d->node%d completed %d/%d chains", w.Src, w.Dst, r.Done, w.Chains)
	}
	r.Moved = w.Size * units.ByteSize(w.Count*w.Chains)
	return nil
}
