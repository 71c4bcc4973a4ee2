// Command tcatop is the fabric's top(1): it runs a sampled scenario,
// prints the hottest telemetry series interval by interval, and closes
// with the bottleneck-attribution verdict — which resource (ring link,
// DMAC engine, or host read path) limited the run, with evidence rows.
//
//	tcatop                                    # link-bound forward-DMA demo
//	tcatop -scenario forward -nodes 8 -dst 4  # longer arc
//	tcatop -scenario pingpong -rounds 50      # latency-bound contrast case
//	tcatop -top 12 -rows 30 -interval 2       # wider table, coarser ticks
package main

import (
	"flag"
	"fmt"
	"os"

	"tca/internal/bench"
	"tca/internal/obsv"
	"tca/internal/prof"
	"tca/internal/tcanet"
	"tca/internal/units"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		scenario = flag.String("scenario", "forward", "scenario: forward | pingpong")
		nodes    = flag.Int("nodes", 4, "ring size")
		src      = flag.Int("src", 0, "source node")
		dst      = flag.Int("dst", 2, "destination node")
		size     = flag.Int("size", 4096, "DMA block size in bytes (forward)")
		count    = flag.Int("count", 255, "DMA descriptor count (forward)")
		rounds   = flag.Int("rounds", 20, "ping-pong rounds (pingpong)")
		interval = flag.Float64("interval", 1, "sampling interval in simulated µs")
		top      = flag.Int("top", 8, "number of hottest series columns to print")
		rows     = flag.Int("rows", 20, "maximum table rows (sampling ticks are strided to fit)")
		profile  = flag.Bool("prof", false, "attach the engine self-profiler: close with the events/sec headline and the components ranked by host time")
	)
	flag.Parse()

	if *interval <= 0 {
		fmt.Fprintln(os.Stderr, "tcatop: -interval must be positive")
		return 2
	}
	iv := units.Duration(*interval * float64(units.Microsecond))

	var w bench.Workload
	var label string
	switch *scenario {
	case "forward":
		sz := units.ByteSize(*size)
		w = bench.Chain{Nodes: *nodes, Src: *src, Dst: *dst, Size: sz, Count: *count, Chains: 1}
		label = fmt.Sprintf("forward DMA %d×%v node%d->node%d (%d-node ring), sampled every %v", *count, sz, *src, *dst, *nodes, iv)
	case "pingpong":
		w = bench.PingPong{Nodes: *nodes, Src: *src, Dst: *dst, Rounds: *rounds}
		label = fmt.Sprintf("PIO ping-pong ×%d node%d<->node%d (%d-node ring), sampled every %v", *rounds, *src, *dst, *nodes, iv)
	default:
		fmt.Fprintf(os.Stderr, "tcatop: unknown scenario %q\n", *scenario)
		return 2
	}
	if err := w.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "tcatop:", err)
		return 2
	}
	var p *prof.Profiler
	if *profile {
		p = prof.New(prof.Options{})
	}
	r, err := w.Run(tcanet.DefaultParams, bench.Attach{Set: obsv.NewSet(bench.SpanCap), Prof: p, Sample: iv})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcatop:", err)
		return 1
	}
	res := r.Telemetry(label)

	fmt.Printf("scenario: %s\n", res.Scenario)
	if res.Moved > 0 {
		bw := units.Rate(res.Moved, res.Elapsed)
		fmt.Printf("moved %v in %v (%.3f GB/s)\n", res.Moved, res.Elapsed, bw.GBps())
	} else {
		fmt.Printf("elapsed %v\n", res.Elapsed)
	}
	fmt.Println()

	hot := obsv.TopSeries(res.Timeline.Series(), *top)
	if len(hot) == 0 {
		fmt.Println("no samples recorded (scenario shorter than one interval?)")
	} else {
		obsv.WriteSeriesTable(os.Stdout, hot, *rows)
		fmt.Println()
	}
	res.Report.WriteReport(os.Stdout)

	if p != nil {
		fmt.Println()
		fmt.Println(r.Stats.Headline())
		p.WriteTable(os.Stdout, *top)
	}
	return 0
}
