package bench

import (
	"tca/internal/obsv"
	"tca/internal/units"
)

// TelemetryResult is the telemetry view of a sampled run: the time-series
// timeline, the metrics snapshot at completion, and the bottleneck
// attribution derived from both.
type TelemetryResult struct {
	Scenario string
	Set      *obsv.Set
	Timeline *obsv.Timeline
	Snapshot *obsv.Snapshot
	Report   *obsv.Report
	// Elapsed is the run's end-to-end sim time; Moved is the payload it
	// carried (0 for latency-only workloads).
	Elapsed units.Duration
	Moved   units.ByteSize
}

// Telemetry is the telemetry view of a run made with a sampling interval
// attached. A long chain keeps the egress ring link busy back-to-back, so
// attribution names the saturated link (link-bound); a ping-pong keeps one
// 8-byte store in flight at a time, so every resource idles
// (underutilized).
func (r *Run) Telemetry(scenario string) *TelemetryResult {
	tl := r.Set.Sampler().Timeline()
	snap := r.Snapshot()
	return &TelemetryResult{
		Scenario: scenario,
		Set:      r.Set,
		Timeline: tl,
		Snapshot: snap,
		Report:   obsv.Attribute(snap, tl),
		Elapsed:  r.End.Elapsed(),
		Moved:    r.Moved,
	}
}
