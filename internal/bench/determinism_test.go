package bench

import (
	"bytes"
	"fmt"
	"testing"
)

// TestTraceDeterminism runs each traced scenario twice on fresh engines and
// asserts the two runs are byte-identical: the same event sequence, the same
// hop breakdown, the same end-to-end latency, and the same metrics snapshot.
// This is the executable form of the invariant tcavet's simdeterminism
// analyzer enforces statically — if a map iteration or wall-clock read
// sneaks into the scheduling path, the serialized transcripts diverge here.
func TestTraceDeterminism(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T) *TraceResult
	}{
		{"ping-pong", func(t *testing.T) *TraceResult {
			return traced(t, PingPong{Nodes: 4, Src: 0, Dst: 2, Rounds: 1}, Attach{}).Trace("ping-pong")
		}},
		{"forward-chain", func(t *testing.T) *TraceResult {
			return traced(t, Forward{Nodes: 8, Src: 1, Dst: 5, Stores: 1}, Attach{}).Trace("forward")
		}},
		// Fault scenarios must be just as reproducible: the injector's rand
		// stream is seeded and consumed only at schedule-determined points,
		// so a mid-run link cut, DLL replays, and a live failover replay
		// byte-identically — the acceptance criterion for `-fault`.
		{"fault-linkdown-failover", func(t *testing.T) *TraceResult {
			return traced(t, PingPong{Nodes: 4, Src: 0, Dst: 2, Rounds: 10}, Attach{Fault: "linkdown:1e:12us", Seed: 7}).Trace("fault")
		}},
		{"fault-lossy-cable", func(t *testing.T) *TraceResult {
			return traced(t, PingPong{Nodes: 4, Src: 0, Dst: 1, Rounds: 6}, Attach{Fault: "corrupt:0.2,drop:0.05", Seed: 42}).Trace("fault")
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			first := serializeTrace(t, sc.run(t))
			second := serializeTrace(t, sc.run(t))
			if !bytes.Equal(first, second) {
				t.Errorf("two runs of %s produced different transcripts:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
					sc.name, firstDiff(first, second), firstDiff(second, first))
			}
		})
	}
}

// serializeTrace flattens a TraceResult — spans, events, hops, latency and
// the full metrics snapshot — into a canonical byte transcript.
func serializeTrace(t *testing.T, res *TraceResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "scenario=%s end-to-end=%v\n", res.Scenario, res.EndToEnd)
	for _, sp := range res.Spans {
		fmt.Fprintf(&buf, "span txn=%d total=%v\n", sp.Txn, sp.Total)
		for _, ev := range sp.Events {
			fmt.Fprintf(&buf, "  event %+v\n", ev)
		}
		for _, hop := range sp.Hops {
			fmt.Fprintf(&buf, "  hop %+v\n", hop)
		}
	}
	if err := res.Snapshot.WriteJSON(&buf); err != nil {
		t.Fatalf("serializing snapshot: %v", err)
	}
	return buf.Bytes()
}

// firstDiff returns the line of a where the two transcripts first diverge,
// so a failure points at the offending event rather than dumping kilobytes.
func firstDiff(a, b []byte) []byte {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range la {
		if i >= len(lb) || !bytes.Equal(la[i], lb[i]) {
			return la[i]
		}
	}
	return []byte("(transcripts identical up to length)")
}
