package pcie

import (
	"fmt"

	"tca/internal/fault"
	"tca/internal/fifo"
	"tca/internal/obsv"
	"tca/internal/sim"
	"tca/internal/units"
)

// This file models the PCIe data-link layer on external cables — the
// reliability half of PEARL (PCI Express Adaptive and Reliable Link).
// Every transmitted TLP gets a sequence number and is held in a bounded
// replay buffer until the receiver's cumulative ACK DLLP releases it; an
// LCRC failure at the receiver NAKs the expected sequence and the sender
// goes-back-N, and a replay timer retransmits when ACKs stop arriving
// (lost frames and lost DLLPs alike). A direction that exhausts its
// replay budget declares the whole cable dead, salvages the unacknowledged
// TLPs, and hands them to the owning chip for rerouting — the hook the
// NIOS failover path builds on.
//
// The DLL is opt-in per link (EnableDLL). A link without a DLL runs the
// original lossless fast path and schedules exactly the same engine
// events as before this layer existed, so fault-free runs stay
// bit-identical with PR 2's baselines.

// DLLParams tunes the data-link layer of one link.
type DLLParams struct {
	// ReplayTimeout is how long the sender waits for ACK progress before
	// replaying the buffer unprompted (REPLAY_TIMER in the PCIe spec).
	ReplayTimeout units.Duration
	// AckNakLatency is the receiver-side delay before an ACK/NAK DLLP is
	// scheduled back to the sender (DLLP assembly + arbitration).
	AckNakLatency units.Duration
	// ReplayBufferTLPs bounds the unacknowledged TLPs per direction; a
	// full buffer backpressures the sender exactly like credit exhaustion.
	ReplayBufferTLPs int
	// MaxReplays is the replay budget: exceeding it declares the link
	// dead instead of retrying forever.
	MaxReplays int
	// BreakSalvage deliberately discards the salvageable TLPs on link
	// death instead of handing them to the DeadHandler — without telling
	// the conservation ledger. It exists only to prove the invariant
	// checker catches silent loss (cmd/tcafuzz -break-salvage); never set
	// it in a real scenario.
	BreakSalvage bool
}

// Default DLL parameters: a replay timer comfortably above one cable RTT,
// a buffer deeper than the credit pool, and the PCIe-conventional four
// replays before retrain (here: before declaring the link dead).
const (
	DefaultReplayTimeout    = units.Microsecond
	DefaultAckNakLatency    = 20 * units.Nanosecond
	DefaultReplayBufferTLPs = 64
	DefaultMaxReplays       = 4
)

// DefaultDLLParams returns the default tuning.
func DefaultDLLParams() DLLParams {
	return DLLParams{
		ReplayTimeout:    DefaultReplayTimeout,
		AckNakLatency:    DefaultAckNakLatency,
		ReplayBufferTLPs: DefaultReplayBufferTLPs,
		MaxReplays:       DefaultMaxReplays,
	}
}

func (p DLLParams) withDefaults() DLLParams {
	if p.ReplayTimeout == 0 {
		p.ReplayTimeout = DefaultReplayTimeout
	}
	if p.AckNakLatency == 0 {
		p.AckNakLatency = DefaultAckNakLatency
	}
	if p.ReplayBufferTLPs == 0 {
		p.ReplayBufferTLPs = DefaultReplayBufferTLPs
	}
	if p.MaxReplays == 0 {
		p.MaxReplays = DefaultMaxReplays
	}
	return p
}

// DeadHandler receives the TLPs salvaged from a direction of a link that
// was just declared dead: the unacknowledged replay buffer plus the
// credit-stalled queue, in transmission order. The owning device decides
// whether to park them for rerouting or drop them.
type DeadHandler func(now sim.Time, salvaged []*TLP)

// dllEntry is one unacknowledged TLP in a replay buffer.
type dllEntry struct {
	seq uint64
	tlp *TLP
}

// dllDir is the per-direction DLL state. Sequence numbers start at 1 so
// that 0 can mean "no NAK outstanding" in nakSeq.
type dllDir struct {
	nextSeq  uint64               // sequence number of the next new TLP
	buf      fifo.Queue[dllEntry] // unacknowledged TLPs, ascending seq
	expected uint64               // receiver side: next sequence to deliver
	replays  int                  // replay rounds since last ACK progress
	timerGen uint64               // invalidates stale replay timers
	nakSeq   uint64               // gap already replayed for (NAK-storm guard)
	dead     bool
	onDead   DeadHandler
}

// dll is the per-link data-link layer.
type dll struct {
	name   string
	params DLLParams
	inj    *fault.Injector
	dirs   [2]dllDir
}

// EnableDLL attaches a data-link layer to the link under the given cable
// name (the name fault profiles reference in linkdown windows). It must
// be called at most once, before traffic flows.
func (l *Link) EnableDLL(name string, inj *fault.Injector, params DLLParams) {
	if l.dll != nil {
		panic(fmt.Sprintf("pcie: DLL already enabled on link %q", l.dll.name))
	}
	d := &dll{name: name, params: params.withDefaults(), inj: inj}
	d.dirs[0] = dllDir{nextSeq: 1, expected: 1}
	d.dirs[1] = dllDir{nextSeq: 1, expected: 1}
	l.dll = d
}

// DLLName reports the cable name the DLL was enabled under ("" without a
// DLL).
func (l *Link) DLLName() string {
	if l.dll == nil {
		return ""
	}
	return l.dll.name
}

// Ends returns the two ports the link joins, in Connect order.
func (l *Link) Ends() (*Port, *Port) { return l.a, l.b }

// SetDeadHandler registers the salvage callback for the direction out of
// from. Requires an enabled DLL.
func (l *Link) SetDeadHandler(from *Port, fn DeadHandler) {
	if l.dll == nil {
		panic("pcie: SetDeadHandler without DLL")
	}
	_, di := l.dir(from)
	l.dll.dirs[di].onDead = fn
}

// DeadFrom reports whether the direction out of from has been declared
// dead. A link without a DLL can never die.
func (l *Link) DeadFrom(from *Port) bool {
	if l.dll == nil {
		return false
	}
	_, di := l.dir(from)
	return l.dll.dirs[di].dead
}

// dllBufFull reports whether the direction's replay buffer backpressures
// new transmissions.
func (l *Link) dllBufFull(di int) bool {
	return l.dll != nil && l.dll.dirs[di].buf.Len() >= l.dll.params.ReplayBufferTLPs
}

// divertDead handles a send into a dead direction: hand the TLP straight
// to the salvage handler (the chip parks it for rerouting) or drop it,
// telling the ledger the drop was deliberate.
func (l *Link) divertDead(now sim.Time, di int, t *TLP) {
	dd := &l.dll.dirs[di]
	if dd.onDead != nil {
		dd.onDead(now, []*TLP{t})
		return
	}
	if l.led != nil && t.LID != 0 {
		l.led.Dropped(now, t.LID, l.obsName, "sent into dead link, no salvage handler")
	}
}

// dllTransmit sequences a TLP into the replay buffer and puts its frame
// on the wire. The credit slot stays occupied until the receiver delivers
// the TLP (not merely until the frame lands), so lost frames keep
// backpressuring the sender until replay gets them through.
func (l *Link) dllTransmit(now sim.Time, d *linkDir, di int, t *TLP) {
	// The replay buffer aliases the packet beyond its delivery (a replay
	// round retransmits it, reading its wire size), so it must never be
	// recycled underneath the buffer: detach it from its pool for good.
	t.Pin()
	dd := &l.dll.dirs[di]
	d.inFlight++
	e := dllEntry{seq: dd.nextSeq, tlp: t}
	dd.nextSeq++
	dd.buf.Push(e)
	l.sendFrame(now, d, di, e, false)
	if dd.buf.Len() == 1 {
		l.armReplayTimer(di)
	}
}

// sendFrame reserves wire time for one sequenced frame and schedules its
// arrival at the receiver's DLL.
func (l *Link) sendFrame(now sim.Time, d *linkDir, di int, e dllEntry, replayed bool) {
	ser := units.TimeToSend(e.tlp.WireBytes(), l.params.Config.RawBandwidth())
	start := d.wire.Reserve(now, ser)
	d.reserved += ser
	if l.rec != nil && e.tlp.Txn != 0 {
		if start > now && !replayed {
			l.rec.Record(obsv.Event{At: now, Txn: e.tlp.Txn, Stage: obsv.StageQueueEnter,
				Where: l.obsName, Port: d.dst.Label, Addr: uint64(e.tlp.Addr), Cause: obsv.CauseRouteBusy})
			l.rec.Record(obsv.Event{At: start, Txn: e.tlp.Txn, Stage: obsv.StageQueueExit,
				Where: l.obsName, Port: d.dst.Label, Addr: uint64(e.tlp.Addr), Cause: obsv.CauseRouteBusy})
		}
		stage := obsv.StageLinkTx
		if replayed {
			stage = obsv.StageReplay
		}
		l.rec.Record(obsv.Event{At: start, Txn: e.tlp.Txn, Stage: stage,
			Where: l.obsName, Port: d.dst.Label, Addr: uint64(e.tlp.Addr)})
	}
	arrive := start.Add(ser).Add(l.params.Propagation)
	l.eng.AtComp(l.comp, arrive, func() {
		l.dllArrive(l.eng.Now(), d, di, e)
	})
}

// dllArrive is the receiver side: LCRC check, injected losses, sequence
// check, then delivery plus a cumulative ACK.
func (l *Link) dllArrive(now sim.Time, d *linkDir, di int, e dllEntry) {
	dd := &l.dll.dirs[di]
	if dd.dead {
		return
	}
	if l.dll.inj.LinkDown(l.dll.name, now) {
		return // blackholed; the replay timer recovers or kills the link
	}
	if l.dll.inj.DropTLP() {
		return // swallowed without ACK; ditto
	}
	if l.dll.inj.CorruptTLP(e.tlp.WireBytes()) {
		l.sendDLLP(now, di, dd.expected, true) // LCRC failure: NAK
		return
	}
	if e.seq != dd.expected {
		if e.seq < dd.expected {
			// Duplicate from a replay round: discard, but re-ACK in case
			// the original ACK was lost.
			l.sendDLLP(now, di, dd.expected, false)
		} else {
			// Gap: an earlier frame was lost. NAK the expected sequence.
			l.sendDLLP(now, di, dd.expected, true)
		}
		return
	}
	dd.expected++
	l.sendDLLP(now, di, dd.expected, false)
	drain := d.dst.owner.Accept(now, e.tlp, d.dst)
	if drain < 0 {
		panic(fmt.Sprintf("pcie: negative drain %v from %s", drain, d.dst.owner.DevName()))
	}
	l.eng.AfterComp(l.comp, drain, func() {
		if dd.dead {
			return // credits were reset when the link died
		}
		d.inFlight--
		if d.inFlight < 0 {
			panic("pcie: credit underflow")
		}
		l.pump(l.eng.Now(), d, di)
	})
}

// sendDLLP schedules an ACK (nak=false) or NAK (nak=true) DLLP back to
// the sender of direction di. ackSeq is cumulative: every buffered entry
// below it is acknowledged. DLLPs are latency-only — they are a few bytes
// and never contend with TLPs for wire time in this model.
func (l *Link) sendDLLP(now sim.Time, di int, ackSeq uint64, nak bool) {
	l.eng.AfterComp(l.comp, l.dll.params.AckNakLatency+l.params.Propagation, func() {
		l.dllpArrive(l.eng.Now(), di, ackSeq, nak)
	})
}

// dllpArrive is the sender side of the ACK/NAK protocol: release
// acknowledged entries, reset the replay budget on progress, and replay
// on a fresh NAK.
func (l *Link) dllpArrive(now sim.Time, di int, ackSeq uint64, nak bool) {
	dd := &l.dll.dirs[di]
	if dd.dead {
		return
	}
	if l.dll.inj.LinkDown(l.dll.name, now) {
		return // the DLLP is blackholed too
	}
	released := 0
	for dd.buf.Len() > 0 && dd.buf.Front().seq < ackSeq {
		dd.buf.Pop()
		released++
	}
	if released > 0 {
		dd.replays = 0
		dd.nakSeq = 0
		dd.timerGen++ // cancel the outstanding timer
		if dd.buf.Len() > 0 {
			l.armReplayTimer(di)
		}
		d, _ := l.dirByIndex(di)
		l.pump(now, d, di)
	}
	if nak && dd.nakSeq != ackSeq && dd.buf.Len() > 0 {
		dd.nakSeq = ackSeq
		l.replay(now, di)
	}
}

// armReplayTimer starts (or restarts) direction di's replay timer.
func (l *Link) armReplayTimer(di int) {
	dd := &l.dll.dirs[di]
	dd.timerGen++
	gen := dd.timerGen
	l.eng.AfterComp(l.comp, l.dll.params.ReplayTimeout, func() {
		if dd.dead || gen != dd.timerGen || dd.buf.Len() == 0 {
			return
		}
		dd.nakSeq = 0 // a timeout replay clears the NAK guard
		l.replay(l.eng.Now(), di)
	})
}

// replay retransmits every unacknowledged frame of direction di
// (go-back-N), or declares the link dead once the budget is exhausted.
func (l *Link) replay(now sim.Time, di int) {
	dd := &l.dll.dirs[di]
	dd.replays++
	if dd.replays > l.dll.params.MaxReplays {
		l.dieDLL(now)
		return
	}
	l.dll.inj.NoteReplay()
	d, _ := l.dirByIndex(di)
	for i := 0; i < dd.buf.Len(); i++ {
		l.sendFrame(now, d, di, dd.buf.At(i), true)
	}
	l.armReplayTimer(di)
}

// dieDLL declares the whole cable dead: both directions stop, pending
// traffic is salvaged in order (replay buffer, then credit queue) and
// handed to each side's dead handler, and credits are reset so nothing
// underflows later.
func (l *Link) dieDLL(now sim.Time) {
	l.dll.inj.NoteReplayExhausted()
	l.dll.inj.NoteLinkDead()
	for di := 0; di < 2; di++ {
		dd := &l.dll.dirs[di]
		if dd.dead {
			continue
		}
		dd.dead = true
		dd.timerGen++
		d, _ := l.dirByIndex(di)
		var salvaged []*TLP
		for i := 0; i < dd.buf.Len(); i++ {
			salvaged = append(salvaged, dd.buf.At(i).tlp)
		}
		for i := 0; i < d.waiting.Len(); i++ {
			salvaged = append(salvaged, d.waiting.At(i).t)
		}
		dd.buf.Clear()
		d.waiting.Clear()
		d.inFlight = 0
		if len(salvaged) == 0 {
			continue
		}
		switch {
		case l.dll.params.BreakSalvage:
			// The injected conservation bug: the TLPs vanish without a
			// Dropped attribution, which the ledger must flag at quiesce.
		case dd.onDead != nil:
			dd.onDead(now, salvaged)
		default:
			for _, t := range salvaged {
				if l.led != nil && t.LID != 0 {
					l.led.Dropped(now, t.LID, l.obsName, "link dead, no salvage handler")
				}
			}
		}
	}
}

// dirByIndex is the inverse of dir: index → direction state.
func (l *Link) dirByIndex(di int) (*linkDir, int) {
	if di == 0 {
		return &l.aToB, 0
	}
	return &l.bToA, 1
}
