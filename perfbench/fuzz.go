package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"tca/internal/check"
	"tca/internal/coll"
	"tca/internal/core"
	"tca/internal/fault"
	"tca/internal/obsv"
	"tca/internal/pcie"
	"tca/internal/scenariogen"
	"tca/internal/sim"
	"tca/internal/tcad"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// The fuzz-jobs corpus is 200 distinct specs. 180 are the first cases of
// tcafuzz master seed 2, fixed for every run: that stream holds the known
// conservation defect (case 86, spec seed 2422890555144810725, dual ring
// of 3 with cable 0s down at 163 µs; also case 156), so failed/attempted
// starts at its true value instead of a seed chosen to miss it. The other
// 20 come from the run's --seed, so a change is also measured on inputs it
// was not tuned on. Keeping most of the corpus fixed keeps the pass cost
// comparable between seeds: job cost varies by more than 10x across specs.
const (
	fuzzCoreMaster  = 2
	fuzzCoreCases   = 180
	fuzzSeedCases   = 20
	knownDefectSeed = 2422890555144810725
	// pollInterval paces the client's status polls; it bounds the error
	// of a job latency, against a median job of tens of milliseconds.
	// Polling faster costs measurable CPU in scheduler wake-ups.
	pollInterval = time.Millisecond
	// fuzzSampleSpecs is how many specs the traced run replays.
	fuzzSampleSpecs = 16
)

type fuzzSpec struct {
	seed int64
	spec scenariogen.Spec
	text string
}

// fuzzJobs submits the corpus to an in-process tcad server with one
// worker per CPU, as a closed loop with at most one outstanding job per
// worker; one submission in four repeats an earlier spec, so tcad's cache
// serves it. It is the only workload that exercises the obsv set, the TLP
// ledger, the fault injector and DLL replay, differential re-runs and
// tcad's queue and cache.
type fuzzJobs struct {
	specs   []fuzzSpec // distinct specs, in first-submission order
	subs    []int      // submission order, as indices into specs
	workers int
	// setupSpec is the corpus's first core case, the same for every seed,
	// so set-up time compares between seeds.
	setupSpec scenariogen.Spec
}

func newFuzzJobs(seed int64) (*fuzzJobs, error) {
	w := &fuzzJobs{workers: runtime.NumCPU()}
	seen := map[int64]bool{}
	add := func(cs int64) {
		if !seen[cs] {
			seen[cs] = true
			sp := scenariogen.Generate(cs)
			w.specs = append(w.specs, fuzzSpec{seed: cs, spec: sp, text: scenariogen.Format(sp)})
		}
	}
	core := rand.New(rand.NewSource(fuzzCoreMaster))
	for i := 0; i < fuzzCoreCases; i++ {
		add(core.Int63())
	}
	w.setupSpec = w.specs[0].spec
	if !seen[knownDefectSeed] {
		return nil, errors.New("fuzz corpus: master seed 2 no longer yields the known-defect case")
	}
	// The seed's cases go in at evenly spaced places, so the core keeps its
	// order and the jobs that run side by side stay much the same.
	cases := rand.New(rand.NewSource(seed))
	every := (fuzzCoreCases + fuzzSeedCases) / fuzzSeedCases
	for len(w.specs) < fuzzCoreCases+fuzzSeedCases {
		n := len(w.specs)
		add(cases.Int63())
		if len(w.specs) > n {
			at := (n-fuzzCoreCases)*every + every/2
			s := w.specs[n]
			copy(w.specs[at+1:], w.specs[at:n])
			w.specs[at] = s
		}
	}
	repeat := rand.New(rand.NewSource(^seed))
	for i := range w.specs {
		w.subs = append(w.subs, i)
		if i%3 == 2 {
			w.subs = append(w.subs, repeat.Intn(i+1))
		}
	}
	return w, nil
}

// setUp starts a server and builds one job's fabric up to its first event:
// topology, obsv set with ledger, driver.
func (w *fuzzJobs) setUp() (func(), error) {
	srv, err := tcad.New(tcad.Config{Workers: w.workers})
	if err != nil {
		return nil, err
	}
	sc, err := buildSpecRing(w.setupSpec)
	if err != nil {
		return srv.Close, err
	}
	set := obsv.NewSet(256)
	set.Led = check.NewLedger()
	sc.Instrument(set)
	_, err = core.NewComm(sc)
	return srv.Close, err
}

func buildSpecRing(sp scenariogen.Spec) (*tcanet.SubCluster, error) {
	if sp.DualRing {
		return tcanet.BuildDualRing(sim.NewEngine(), sp.K, tcanet.DefaultParams)
	}
	return tcanet.BuildRing(sim.NewEngine(), sp.K, tcanet.DefaultParams)
}

// fuzzSpans are the traced run's extra spans around the server.
type fuzzSpans struct {
	submitUS []float64
	queueMS  []float64
	reg      *obsv.Registry
}

func (w *fuzzJobs) pass(tl *tally) (string, []float64) {
	return w.run(tl, &fuzzSpans{})
}

// run submits the whole corpus to a fresh server and waits for every
// result; the fingerprint hashes every spec's result payload.
func (w *fuzzJobs) run(tl *tally, sp *fuzzSpans) (string, []float64) {
	sp.reg = obsv.NewRegistry()
	srv, err := tcad.New(tcad.Config{Workers: w.workers, Registry: sp.reg})
	if err != nil {
		tl.op("tcad:new", err)
		return "", nil
	}
	defer srv.Close()
	type inflight struct {
		id    uint64
		spec  int
		first bool
		c     clock
	}
	got := make([][]byte, len(w.specs))
	submitted := make([]bool, len(w.specs))
	var out []inflight
	jobs := make([]float64, 0, len(w.subs))
	for next := 0; next < len(w.subs) || len(out) > 0; {
		for len(out) < w.workers && next < len(w.subs) {
			si := w.subs[next]
			next++
			c := start()
			resp, err := srv.Submit(tcad.Request{Spec: w.specs[si].text})
			sp.submitUS = append(sp.submitUS, c.ns()/1e3)
			if err != nil {
				name := "tcad:submit"
				if errors.Is(err, tcad.ErrQueueFull) {
					name = "tcad:shed"
				}
				tl.op(name, err)
				continue
			}
			out = append(out, inflight{id: resp.ID, spec: si, first: !submitted[si], c: c})
			submitted[si] = true
		}
		done := 0
		for i := 0; i < len(out); {
			f := out[i]
			st, ok := srv.JobStatus(f.id)
			if ok && !terminal(st.State) {
				i++
				continue
			}
			jobs = append(jobs, f.c.ms())
			if f.first {
				sp.queueMS = append(sp.queueMS, float64(st.QueueNS)/1e6)
			}
			if !ok {
				tl.op("tcad:lost", fmt.Errorf("job %d vanished", f.id))
			} else {
				w.observe(tl, got, f.spec, st)
			}
			out = append(out[:i], out[i+1:]...)
			done++
		}
		if done == 0 {
			time.Sleep(pollInterval)
		}
	}
	h := fnv.New64a()
	for _, p := range got {
		h.Write(p)
	}
	return fmt.Sprintf("%016x", h.Sum64()), jobs
}

func terminal(state string) bool {
	switch tcad.State(state) {
	case tcad.StateSucceeded, tcad.StateFailed, tcad.StateQuarantined:
		return true
	}
	return false
}

// observe classifies one finished submission. tcad reports checker
// failures under state succeeded, so the result's check_failures count as
// failed operations too, named by the first failure's kind.
func (w *fuzzJobs) observe(tl *tally, got [][]byte, si int, st tcad.Status) {
	name, err := "job", error(nil)
	payload := []byte(st.Result)
	switch tcad.State(st.State) {
	case tcad.StateSucceeded:
		var res struct {
			CheckFailures []string `json:"check_failures"`
		}
		if e := json.Unmarshal(st.Result, &res); e != nil {
			name, err = "tcad:result", e
		} else if len(res.CheckFailures) > 0 {
			name = "check:" + failureKind(res.CheckFailures[0])
			err = fmt.Errorf("spec seed %d: %s", w.specs[si].seed, strings.Join(res.CheckFailures, "; "))
		}
	default:
		name = "tcad:" + st.State
		err = fmt.Errorf("spec seed %d: %+v", w.specs[si].seed, st.Failure)
		payload, _ = json.Marshal(st.Failure) // a struct of strings and ints always marshals
	}
	tl.op(name, err)
	if got[si] == nil {
		got[si] = payload
	} else if !bytes.Equal(got[si], payload) {
		tl.mismatch("tcad cache: a repeat of spec seed %d was served different bytes", w.specs[si].seed)
	}
}

// failureKind names a check failure: "invariant:<rule>" for a broken
// fabric invariant ("invariant: t=… at <where>: <rule>: <detail>"), else
// its leading word ("determinism", "differential").
func failureKind(f string) string {
	parts := strings.SplitN(f, ": ", 4)
	if parts[0] == "invariant" && len(parts) >= 3 {
		return "invariant:" + parts[2]
	}
	return parts[0]
}

// traceLayers runs one pass with spans around the server, times the
// program's own checker and generator, and replays a sample of the
// corpus on fabrics the benchmark builds.
func (w *fuzzJobs) traceLayers(tl *tally, m metrics) {
	sp := &fuzzSpans{}
	_, jobs := w.run(tl, sp)
	m.set("tcad.job_p50_ms", "ms", quantile(jobs, 0.50))
	m.set("tcad.job_p95_ms", "ms", quantile(jobs, 0.95))
	snap := sp.reg.Snapshot(0)
	counter := func(name string) float64 {
		var n uint64
		for _, c := range snap.Counters {
			if c.Name == name {
				n += c.Value
			}
		}
		return float64(n)
	}
	m.set("tcad.submit_us", "us", median(sp.submitUS))
	m.set("tcad.queue_wait_ms", "ms", median(sp.queueMS))
	m.set("tcad.cache_hit_ratio", "ratio", counter("tcad_cache_hits")/max(counter("tcad_cache_hits")+counter("tcad_cache_misses"), 1))
	m.set("tcad.shed", "count", counter("tcad_jobs_shed"))
	m.set("tcad.retries", "count", counter("tcad_jobs_retried"))

	sample := w.sample()
	var diffMS []float64
	violations := 0
	refs := make([]*check.Result, len(sample))
	for i, s := range sample {
		c := start()
		d, err := check.RunDiff(s.spec, check.Options{})
		diffMS = append(diffMS, c.ms())
		tl.check("check:rundiff", err)
		refs[i], err = check.Run(s.spec, check.Options{})
		tl.check("check:run", err)
		if err != nil {
			continue
		}
		violations += len(refs[i].Violations)
		if d != nil && !bytes.Equal(refs[i].Transcript, d.Faulty.Transcript) {
			tl.mismatch("non-determinism: spec seed %d: check.Run transcript differs from RunDiff's", s.seed)
		}
	}
	m.set("check.rundiff_ms", "ms", median(diffMS))
	m.set("check.violations", "count", float64(violations))

	born := 0
	var replays, linkDown uint64
	replay(tl, m, "spec", func(r *fabricRun) error {
		var errs []error
		for j, s := range sample {
			out, err := runSpec(r, s.spec)
			if err == nil && refs[j] != nil && (out.end != refs[j].End || out.sum != refs[j].Summary) {
				err = fmt.Errorf("spec seed %d: replica ended %v with %+v, check.Run %v with %+v", s.seed, out.end, out.sum, refs[j].End, refs[j].Summary)
			}
			errs = append(errs, err)
			if r.mode == modeCounted {
				born += out.sum.Born
				replays += out.replays
				linkDown += out.linkDown
			}
		}
		return errors.Join(errs...)
	})
	m.set("check.ledger_tlps", "count", float64(born))
	m.set("fault.replays", "count", float64(replays))
	m.set("fault.link_down", "count", float64(linkDown))
}

// sample is the first fuzzSampleSpecs specs in submission order plus the
// known-defect spec.
func (w *fuzzJobs) sample() []fuzzSpec {
	out := append([]fuzzSpec(nil), w.specs[:fuzzSampleSpecs]...)
	for _, s := range out {
		if s.seed == knownDefectSeed {
			return out
		}
	}
	for _, s := range w.specs {
		if s.seed == knownDefectSeed {
			out = append(out, s)
		}
	}
	return out
}

// specOut is what one replayed spec leaves behind.
type specOut struct {
	end               sim.Time
	sum               check.Summary
	replays, linkDown uint64
}

// Scenario buffer layout, as check.Run lays it out: each node buffer holds
// MaxOps destination slots followed by MaxOps source slots.
const specBufLen = units.ByteSize(2 * scenariogen.MaxOps * scenariogen.SlotBytes)

func specDst(op int) units.ByteSize { return units.ByteSize(op * scenariogen.SlotBytes) }
func specSrc(op int) units.ByteSize {
	return units.ByteSize((scenariogen.MaxOps + op) * scenariogen.SlotBytes)
}

// specFill is check.Run's per-op payload pattern.
func specFill(seed int64, op, n int) []byte {
	b := make([]byte, n)
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(op+1)*0xBF58476D1CE4E5B9
	if x == 0 {
		x = 1
	}
	for j := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[j] = byte(x)
	}
	return b
}

// runSpec replays check.Run's scenario program — topology, obsv set with
// ledger, fault wiring, buffers, payloads and sequential op order — on a
// sub-cluster the benchmark builds, so r can observe it. The caller
// compares the end time and ledger summary with check.Run's.
func runSpec(r *fabricRun, spec scenariogen.Spec) (specOut, error) {
	sc, err := buildSpecRing(spec)
	if err != nil {
		return specOut{}, err
	}
	led := check.NewLedger()
	set := obsv.NewSet(256)
	set.Led = led
	r.attach(sc, set)
	var inj *fault.Injector
	if spec.Faults != "" {
		fp, err := fault.ParseScenario(spec.Faults, spec.Seed)
		if err != nil {
			return specOut{}, err
		}
		inj = fault.New(fp)
		sc.InjectFaults(inj, pcie.DefaultDLLParams())
		sc.EnableAutoFailover(0)
	}
	comm, err := core.NewComm(sc)
	if err != nil {
		return specOut{}, err
	}
	n := spec.Nodes()
	hostBufs := make([]core.HostBuffer, n)
	gpuBufs := make([][2]core.GPUBuffer, n)
	for i := 0; i < n; i++ {
		if hostBufs[i], err = comm.AllocHostBuffer(i, specBufLen); err != nil {
			return specOut{}, err
		}
		for g := 0; g < 2; g++ {
			if gpuBufs[i][g], err = comm.RegisterGPUBuffer(i, g, specBufLen); err != nil {
				return specOut{}, err
			}
		}
	}
	var col *coll.Communicator
	for _, o := range spec.Ops {
		if o.Kind == scenariogen.OpBarrier {
			if col, err = coll.New(comm); err != nil {
				return specOut{}, err
			}
			break
		}
	}
	for i, o := range spec.Ops {
		switch o.Kind {
		case scenariogen.OpHostPut:
			err = comm.WriteHost(hostBufs[o.Src], specSrc(i), specFill(spec.Seed, i, o.Bytes))
		case scenariogen.OpDMA:
			err = comm.WriteGPU(gpuBufs[o.Src][o.SrcGPU], specSrc(i), specFill(spec.Seed, i, o.Bytes))
		case scenariogen.OpStride:
			err = comm.WriteHost(hostBufs[o.Src], specSrc(i), specFill(spec.Seed, i, o.Stride*(o.Count-1)+o.BlockLen))
		}
		if err != nil {
			return specOut{}, err
		}
	}
	var execErr error
	next := 0
	var step func(now sim.Time)
	step = func(sim.Time) {
		for execErr == nil && next < len(spec.Ops) {
			i := next
			o := spec.Ops[i]
			next++
			onDone := func(now sim.Time) { step(now) }
			switch o.Kind {
			case scenariogen.OpPIO:
				addr, err := comm.GlobalHost(hostBufs[o.Dst], specDst(i))
				if err != nil {
					execErr = err
					return
				}
				execErr = comm.PIOPut(o.Src, addr, specFill(spec.Seed, i, o.Bytes))
				continue
			case scenariogen.OpHostPut:
				execErr = comm.PutToHost(hostBufs[o.Dst], specDst(i), o.Src,
					hostBufs[o.Src].Bus+pcie.Addr(specSrc(i)), units.ByteSize(o.Bytes), onDone)
			case scenariogen.OpDMA:
				execErr = comm.MemcpyPeer(gpuBufs[o.Dst][o.DstGPU], specDst(i),
					gpuBufs[o.Src][o.SrcGPU], specSrc(i), units.ByteSize(o.Bytes), onDone)
			case scenariogen.OpStride:
				addr, err := comm.GlobalHost(hostBufs[o.Dst], specDst(i))
				if err != nil {
					execErr = err
					return
				}
				bs := core.BlockStride{
					BlockLen:  units.ByteSize(o.BlockLen),
					Count:     o.Count,
					SrcStride: units.ByteSize(o.Stride),
					DstStride: units.ByteSize(o.Stride),
				}
				execErr = comm.PutBlockStride(o.Src, hostBufs[o.Src].Bus+pcie.Addr(specSrc(i)), addr, bs, onDone)
			case scenariogen.OpBarrier:
				rounds := o.Rounds
				var again func(now sim.Time)
				again = func(now sim.Time) {
					if rounds--; rounds == 0 {
						onDone(now)
						return
					}
					col.Barrier(again)
				}
				col.Barrier(again)
			}
			return
		}
	}
	step(0)
	if execErr != nil {
		return specOut{}, execErr
	}
	r.drain(sc, set)
	if execErr != nil {
		return specOut{}, execErr
	}
	end := sc.Engine().Now()
	fc := inj.Counts()
	return specOut{end: end, sum: led.Audit(end), replays: fc.Replays, linkDown: fc.LinkDown}, nil
}
