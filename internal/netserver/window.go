package netserver

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"softlora/internal/core"
)

// Streaming-window defaults.
const (
	// DefaultWindowMaxReceivers commits a pending frame as soon as this
	// many distinct gateways contributed a copy, without waiting out the
	// hold.
	DefaultWindowMaxReceivers = 3
	// DefaultWindowMaxPending caps the pending-frame map; beyond it the
	// oldest pending frame is force-committed (shed) to admit a new one.
	DefaultWindowMaxPending = 1 << 16
	// defaultEventQueueFloor is the minimum event-queue capacity.
	defaultEventQueueFloor = 1024
)

// WindowConfig configures the streaming cross-call frame dedup window.
// Hold <= 0 disables the window entirely.
type WindowConfig struct {
	// Hold is how long (seconds on the observation clock — the server's
	// LatestObservation) a frame's first copy stays pending for further
	// receiver copies before its verdict commits.
	Hold float64
	// MaxReceivers commits the frame early once this many distinct
	// gateways contributed a copy (DefaultWindowMaxReceivers when 0).
	MaxReceivers int
	// MaxPending bounds the pending-frame map (DefaultWindowMaxPending
	// when 0). Inserting beyond it sheds the oldest pending frame —
	// committing it with whatever copies it has — so a duplicate storm
	// degrades dedup quality, never memory.
	MaxPending int
	// LateHorizon is how long (seconds, observation clock) a committed
	// frame's identity and copies are remembered so copies arriving after
	// commit reconcile instead of re-verdicting (2×Hold when 0).
	LateHorizon float64
	// MaxCommitted bounds the committed-frame memory (4×MaxPending when
	// 0); beyond it the oldest committed identity is forgotten.
	MaxCommitted int
}

// frameKey is the dedup identity. It holds the device ID, so a FrameID
// collision across devices yields separate frames, never a mixed one; and
// as a pair of fields, no two distinct (DeviceID, FrameID) pairs can share
// a key, whatever bytes the IDs contain.
type frameKey struct{ DeviceID, FrameID string }

// compare orders keys canonically: by DeviceID, then FrameID.
func (k frameKey) compare(o frameKey) int {
	if c := strings.Compare(k.DeviceID, o.DeviceID); c != 0 {
		return c
	}
	return strings.Compare(k.FrameID, o.FrameID)
}

// maxPresizedCopies bounds the copy-set capacity a new frame reserves, for
// MaxReceivers settings far above any real deployment's receiver count.
const maxPresizedCopies = 16

// frame is one frame's window entry for its whole life, and then for the
// lives of later frames. window.frames maps its key to it from the first
// copy until it is forgotten:
//
//   - pending: the frame's first copy opens it (ingestLocked), and it
//     gathers copies, on window.openOrder, until its hold expires or it is
//     full;
//   - committed: commitEntryLocked folds its fused verdict into the
//     database once and sets done; the frame stays in window.frames, now
//     on window.commitOrder, so late copies reconcile against it;
//   - forgotten: past the late horizon, or beyond MaxCommitted,
//     forgetCommittedLocked deletes its key;
//   - reused: a forgotten frame goes on window.free, and a later new frame
//     takes it, copy slice included, instead of allocating.
//
// A frame goes on the free list only when nothing points at it any more.
// Commit unlinks it from the open list and its device chain, and forgetting
// unlinks it from the frame table and the commit list, so window.ready is
// the one holder left: a frame that became ready and was then shed by a new
// frame's arrival stays there until the next commit pass compacts it out.
// Reused while still queued, it would sit in the queue as a new pending
// frame, and that pass would commit it before it filled or its hold
// expired. The ready flag says whether the queue holds a frame; one
// forgotten while it does is left to the collector instead.
type frame struct {
	key    frameKey
	index  int64   // min UplinkIndex seen
	opened float64 // watermark when the first copy arrived
	// obs is the copy set, at most one observation per gateway, in
	// canonical fusion order (mergeCopy).
	obs   []PHYObservation
	full  bool // reached MaxReceivers distinct gateways
	ready bool // in window.ready: queued for commit (expired or full)
	done  bool // committed or shed: pending until set, remembered after
	// prev and next link the frame into window.openOrder while it is
	// pending, then into window.commitOrder while it is committed; it is
	// never on both lists. On window.free, next links the free list.
	prev, next *frame
	// nextOfDevice chains the pending frames of one device
	// (window.byDevice).
	nextOfDevice *frame
	// committedAt and fused are set at commit, for late reconciliation.
	committedAt float64
	fused       FrameVerdict
}

// frameList is an intrusive FIFO of frames linked through prev/next.
type frameList struct {
	head, tail *frame
	len        int
}

func (l *frameList) pushBack(f *frame) {
	f.prev, f.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = f
	} else {
		l.head = f
	}
	l.tail = f
	l.len++
}

func (l *frameList) remove(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		l.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		l.tail = f.prev
	}
	f.prev, f.next = nil, nil
	l.len--
}

// window is the cross-call dedup state, guarded by NetworkServer.winMu.
// Shard locks are only ever taken while winMu is held (commit →
// checkDevice), never the other way around, so the two lock levels cannot
// deadlock.
type window struct {
	cfg WindowConfig

	// frames holds every pending and every remembered committed frame by
	// key; frame.done tells the two apart, and no key is ever both.
	frames    map[frameKey]*frame
	openOrder frameList // pending frames, in open (≈ watermark) order
	// byDevice heads each device's chain of pending frames.
	byDevice map[string]*frame
	ready    []*frame

	commitOrder frameList // committed frames, in commit order
	// free stacks forgotten frames for reuse, linked through next. Every
	// frame on it once counted against MaxPending and MaxCommitted, so it
	// never holds more frames than the window did at its fullest.
	free *frame

	// clock is the newest finite ArrivalTime ingested. The window reads the
	// observation clock as the max of it and LatestObservation (clockLocked)
	// and, with the counts below, publishes it to the server's atomics once
	// per call (publishLocked).
	clock                                  float64
	observations, merged, duplicates, late int64

	// events[head:] is the queue of committed verdicts not yet taken;
	// dropping the oldest advances head.
	events    []FrameVerdict
	head      int
	maxEvents int
}

// newWindow normalizes cfg and builds the window state.
func newWindow(cfg WindowConfig) *window {
	if cfg.MaxReceivers <= 0 {
		cfg.MaxReceivers = DefaultWindowMaxReceivers
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = DefaultWindowMaxPending
	}
	if cfg.LateHorizon <= 0 {
		cfg.LateHorizon = 2 * cfg.Hold
	}
	if cfg.MaxCommitted <= 0 {
		cfg.MaxCommitted = 4 * cfg.MaxPending
	}
	maxEvents := 4 * cfg.MaxPending
	if maxEvents < defaultEventQueueFloor {
		maxEvents = defaultEventQueueFloor
	}
	return &window{
		cfg:       cfg,
		frames:    make(map[frameKey]*frame),
		byDevice:  make(map[string]*frame),
		maxEvents: maxEvents,
	}
}

// PendingFrames returns how many frames are currently held open in the
// window (0 when the window is disabled).
func (s *NetworkServer) PendingFrames() int {
	if s.win == nil {
		return 0
	}
	s.winMu.Lock()
	defer s.winMu.Unlock()
	return s.win.openOrder.len
}

// ingestOne is the windowed Check path: ingest the observation, then
// return this frame's verdict if it committed during the call (leaving
// every other queued event for the next poll), VerdictPending otherwise.
func (s *NetworkServer) ingestOne(obs *PHYObservation) core.Verdict {
	s.winMu.Lock()
	defer s.winMu.Unlock()
	err := s.ingestLocked(obs)
	s.publishLocked()
	if err != nil {
		// Fail closed: an unidentifiable observation is never accepted.
		return core.VerdictReplay
	}
	s.processWindowLocked()
	w := s.win
	for i := len(w.events) - 1; i >= w.head; i-- {
		ev := &w.events[i]
		if !ev.Revised && ev.DeviceID == obs.DeviceID && ev.FrameID == obs.FrameID {
			v := ev.Verdict
			last := len(w.events) - 1
			copy(w.events[i:], w.events[i+1:])
			w.events[last] = FrameVerdict{}
			w.events = w.events[:last]
			return v
		}
	}
	return core.VerdictPending
}

// ingestBatch is the windowed CheckBatch path: ingest every observation,
// run the commit pass, and drain the event queue. On a bad observation the
// events committed so far are returned alongside the error.
func (s *NetworkServer) ingestBatch(obs []PHYObservation) ([]FrameVerdict, error) {
	s.winMu.Lock()
	defer s.winMu.Unlock()
	var firstErr error
	for i := range obs {
		if err := s.ingestLocked(&obs[i]); err != nil {
			firstErr = fmt.Errorf("netserver: observation %d of batch (device %q, frame %q): %w",
				i, obs[i].DeviceID, obs[i].FrameID, err)
			break
		}
	}
	s.publishLocked()
	s.processWindowLocked()
	return s.takeEventsLocked(), firstErr
}

// PollWindow runs a commit pass at the current watermark and drains the
// committed-verdict queue — the way a Check-only caller collects verdicts
// the window held back. Nil when the window is disabled or idle.
func (s *NetworkServer) PollWindow() []FrameVerdict {
	if s.win == nil {
		return nil
	}
	s.winMu.Lock()
	defer s.winMu.Unlock()
	s.processWindowLocked()
	return s.takeEventsLocked()
}

// AdvanceWindow advances the observation clock to now (monotonic max, like
// any observation arrival) and commits every pending frame whose hold has
// expired, returning the drained events. This is the idle-stream tick: a
// deployment whose traffic pauses still gets its held verdicts.
func (s *NetworkServer) AdvanceWindow(now float64) []FrameVerdict {
	if s.win == nil {
		return nil
	}
	s.observeTime(now)
	return s.PollWindow()
}

// TickWindow is AdvanceWindow without moving the clock and without
// draining: expired frames commit and their verdicts queue for the next
// CheckBatch/PollWindow. The background Flusher calls this each cycle so
// pending-window memory is bounded in time even when ingest stalls.
func (s *NetworkServer) TickWindow() {
	if s.win == nil {
		return
	}
	s.winMu.Lock()
	defer s.winMu.Unlock()
	s.processWindowLocked()
}

// DrainWindow force-commits every pending frame — in (UplinkIndex,
// DeviceID, FrameID) order, the same canonical order timed commits use —
// and returns all queued events. The shutdown / end-of-run flush.
func (s *NetworkServer) DrainWindow() []FrameVerdict {
	if s.win == nil {
		return nil
	}
	s.winMu.Lock()
	defer s.winMu.Unlock()
	w := s.win
	all := make([]*frame, 0, w.openOrder.len)
	for e := w.openOrder.head; e != nil; e = e.next {
		all = append(all, e)
	}
	sortPending(all)
	for _, e := range all {
		s.commitEntryLocked(e)
	}
	for _, e := range w.ready {
		e.ready = false
	}
	w.ready = w.ready[:0]
	return s.takeEventsLocked()
}

// ingestLocked routes one observation: merge into its pending frame,
// reconcile against its committed frame, or open a new entry (shedding the
// oldest if the pending cap is hit), on a frame from the free list when it
// has one. The observation is copied only into a frame's copy set. Caller
// holds winMu.
func (s *NetworkServer) ingestLocked(o *PHYObservation) error {
	if o.DeviceID == "" {
		return ErrNoDevice
	}
	w := s.win
	w.observations++
	if t := o.ArrivalTime; t > w.clock && !math.IsInf(t, 1) {
		w.clock = t
	}
	if o.FrameID == "" {
		// No identity to dedup on: judged immediately, its own frame.
		fv, err := s.commitObs([]PHYObservation{*o})
		if err != nil {
			return err
		}
		s.pushEventLocked(fv)
		return nil
	}
	key := frameKey{o.DeviceID, o.FrameID}
	if e, ok := w.frames[key]; ok {
		if e.done {
			s.reconcileLocked(e, o)
			return nil
		}
		w.merged++
		w.duplicates++
		mergeCopy(&e.obs, o)
		if o.UplinkIndex < e.index {
			e.index = o.UplinkIndex
		}
		if !e.full && len(e.obs) >= w.cfg.MaxReceivers {
			e.full = true
			if !e.ready {
				e.ready = true
				w.ready = append(w.ready, e)
			}
		}
		return nil
	}
	// New frame: shed the oldest pending entry if the cap is hit.
	for w.openOrder.len >= w.cfg.MaxPending {
		s.shed.Add(1)
		s.commitEntryLocked(w.openOrder.head)
	}
	e := w.free
	if e != nil {
		w.free = e.next
	} else {
		e = &frame{obs: make([]PHYObservation, 0, min(w.cfg.MaxReceivers, maxPresizedCopies))}
	}
	*e = frame{
		key:          key,
		index:        o.UplinkIndex,
		opened:       s.clockLocked(),
		obs:          append(e.obs[:0], *o), // a reused frame keeps its copy slice
		nextOfDevice: w.byDevice[key.DeviceID],
	}
	if len(e.obs) >= w.cfg.MaxReceivers {
		e.full, e.ready = true, true
		w.ready = append(w.ready, e)
	}
	w.frames[key] = e
	w.openOrder.pushBack(e)
	w.byDevice[key.DeviceID] = e
	return nil
}

// clockLocked reads the observation clock as the window sees it: the newest
// arrival it ingested, or the server's published clock when that is newer
// (a database load, AdvanceWindow, an immediate-mode Check). Caller holds
// winMu.
func (s *NetworkServer) clockLocked() float64 {
	return max(s.win.clock, s.LatestObservation())
}

// publishLocked hands the window's clock and the call's counts to the
// server's atomics, once per call: readers that do not hold winMu (Stats,
// Sweep) see ingest at call granularity. Calls publish before their commit
// pass, so each commit's checkDevice finds the clock already current.
// Caller holds winMu.
func (s *NetworkServer) publishLocked() {
	w := s.win
	s.observeTime(w.clock)
	s.observations.Add(w.observations)
	s.winMerged.Add(w.merged)
	s.duplicates.Add(w.duplicates)
	s.lateObs.Add(w.late)
	w.observations, w.merged, w.duplicates, w.late = 0, 0, 0, 0
}

// mergeCopy folds a copy into a pending or committed frame's per-gateway
// copy set: at most one observation per gateway survives, and which one is
// a pure function of the copies' contents (never their delivery order), so
// the fused estimate is delivery-schedule independent. A new gateway's copy
// goes in at its GatewayID's place, which keeps the set in canonical fusion
// order: one copy per gateway makes gateway ID a total order, so the
// weighted sums accumulate identically for every delivery schedule.
func mergeCopy(obs *[]PHYObservation, o *PHYObservation) {
	for i := range *obs {
		have := &(*obs)[i]
		c := strings.Compare(have.GatewayID, o.GatewayID)
		if c < 0 {
			continue
		}
		if c > 0 {
			*obs = slices.Insert(*obs, i, *o)
		} else if betterCopy(o, have) {
			*have = *o
		}
		return
	}
	*obs = append(*obs, *o)
}

// betterCopy deterministically orders two copies from the same gateway:
// lower jitter wins, then lower FB, then earlier arrival. Exact duplicate
// deliveries (a looping packet forwarder) tie and keep the incumbent.
func betterCopy(a, b *PHYObservation) bool {
	ja, jb := effJitter(a.JitterHz), effJitter(b.JitterHz)
	if ja != jb {
		return ja < jb
	}
	if a.FBHz != b.FBHz {
		return a.FBHz < b.FBHz
	}
	return a.ArrivalTime < b.ArrivalTime
}

// compareCommit orders frames canonically: ascending UplinkIndex, ties by
// key (for IDs without NUL bytes, the byte order of the former
// "device\x00frame" string keys). Commits always happen in this order
// among eligible entries, which is what makes database bytes
// schedule-independent.
func compareCommit(a, b *frame) int {
	if c := cmp.Compare(a.index, b.index); c != 0 {
		return c
	}
	return a.key.compare(b.key)
}

// sortPending puts entries in canonical commit order.
func sortPending(entries []*frame) { slices.SortFunc(entries, compareCommit) }

// processWindowLocked expires pending frames against the watermark and
// commits every eligible ready frame. A ready frame is held back while a
// pending frame of the same device precedes it in canonical order —
// per-device commits happen in uplink order, so the database folds of a
// device are a pure function of the copies delivered, not of the delivery
// schedule. Caller holds winMu.
func (s *NetworkServer) processWindowLocked() {
	w := s.win
	wm := s.clockLocked()
	// Expiry scan: openOrder is in watermark order, stop at the first
	// still-held entry.
	for e := w.openOrder.head; e != nil; e = e.next {
		if e.opened+w.cfg.Hold > wm {
			break
		}
		if !e.ready {
			e.ready = true
			w.ready = append(w.ready, e)
		}
	}
	if len(w.ready) == 0 {
		s.evictCommittedLocked(wm)
		return
	}
	for progress := true; progress; {
		progress = false
		sortPending(w.ready)
		for _, e := range w.ready {
			if e.done || s.earlierPendingLocked(e) {
				continue
			}
			s.commitEntryLocked(e)
			progress = true
		}
		// Compact committed entries out of the ready queue.
		kept := w.ready[:0]
		for _, e := range w.ready {
			if !e.done {
				kept = append(kept, e)
			} else {
				e.ready = false
			}
		}
		w.ready = kept
	}
	s.evictCommittedLocked(wm)
}

// earlierPendingLocked reports whether a pending frame of the same device
// precedes e in canonical order — the per-device commit gate.
func (s *NetworkServer) earlierPendingLocked(e *frame) bool {
	for f := s.win.byDevice[e.key.DeviceID]; f != nil; f = f.nextOfDevice {
		if f != e && !f.done && compareCommit(f, e) < 0 {
			return true
		}
	}
	return false
}

// commitEntryLocked removes e from the pending structures, commits its
// fused verdict (one database fold), queues the event, and remembers the
// frame for late reconciliation: it stays in the frame table, now done.
// Caller holds winMu.
func (s *NetworkServer) commitEntryLocked(e *frame) {
	w := s.win
	e.done = true
	w.openOrder.remove(e)
	s.unchainDeviceLocked(e)
	fv, err := s.commitObs(e.obs)
	if err != nil {
		// Unreachable: the key holds the device ID and ingest validated
		// it. Drop rather than poison the queue.
		delete(w.frames, e.key)
		s.eventsDropped.Add(1)
		return
	}
	s.pushEventLocked(fv)
	e.committedAt = s.clockLocked()
	e.fused = fv
	w.commitOrder.pushBack(e)
	for w.commitOrder.len > w.cfg.MaxCommitted {
		s.forgetCommittedLocked(w.commitOrder.head)
	}
}

// unchainDeviceLocked unlinks a committing frame from its device's chain
// of pending frames. Caller holds winMu.
func (s *NetworkServer) unchainDeviceLocked(e *frame) {
	w := s.win
	dev := e.key.DeviceID
	if head := w.byDevice[dev]; head == e {
		if e.nextOfDevice == nil {
			delete(w.byDevice, dev)
		} else {
			w.byDevice[dev] = e.nextOfDevice
		}
	} else {
		for f := head; f != nil; f = f.nextOfDevice {
			if f.nextOfDevice == e {
				f.nextOfDevice = e.nextOfDevice
				break
			}
		}
	}
	e.nextOfDevice = nil
}

// reconcileLocked handles a copy that arrived after its frame committed:
// merge it into the remembered copy set, re-fuse, and re-evaluate the
// verdict read-only against the current database. A flip emits a Revised
// FrameVerdict; the original fold is never undone and the late copy is
// never folded — one frame, one database update, always.
func (s *NetworkServer) reconcileLocked(cf *frame, o *PHYObservation) {
	w := s.win
	w.late++
	w.duplicates++
	mergeCopy(&cf.obs, o)
	active, excluded := cf.obs, []PHYObservation(nil)
	var elect []float64
	if s.health != nil {
		active, excluded, elect = s.health.filter(cf.obs)
	}
	fv, err := fuseDetail(active, nil, elect)
	if err != nil {
		return
	}
	fv.Receivers = len(cf.obs)
	fv.QuarantinedExcluded = len(excluded)
	fv.FrameID = cf.fused.FrameID
	fv.Verdict = s.peekVerdict(fv.DeviceID, fv.FBHz)
	if fv.Verdict != cf.fused.Verdict {
		s.revised.Add(1)
		fv.Revised = true
		fv.PrevVerdict = cf.fused.Verdict
		s.pushEventLocked(fv)
	}
	// Later copies compare against the latest reconciled state, so a
	// sustained trickle of late copies emits one event per flip, not one
	// per copy.
	cf.fused = fv
}

// evictCommittedLocked forgets committed frames older than the late
// horizon. Caller holds winMu.
func (s *NetworkServer) evictCommittedLocked(wm float64) {
	w := s.win
	for cf := w.commitOrder.head; cf != nil; cf = w.commitOrder.head {
		if cf.committedAt+w.cfg.LateHorizon > wm {
			break
		}
		s.forgetCommittedLocked(cf)
	}
}

// forgetCommittedLocked drops one committed identity. A copy arriving
// after this re-opens the frame and re-verdicts — the documented memory/
// exactness trade of the late horizon. The frame goes on the free list
// unless window.ready still holds it (see frame).
func (s *NetworkServer) forgetCommittedLocked(cf *frame) {
	w := s.win
	delete(w.frames, cf.key)
	w.commitOrder.remove(cf)
	if !cf.ready {
		cf.next, w.free = w.free, cf
	}
}

// pushEventLocked queues a committed verdict, dropping the oldest beyond
// the queue cap (a Check-only caller that never polls must not grow the
// queue without bound). A drop advances the head index; the live part
// slides down only once the dropped prefix reaches the cap, so a push is
// amortized O(1) even on a full queue. Caller holds winMu.
func (s *NetworkServer) pushEventLocked(fv FrameVerdict) {
	w := s.win
	if len(w.events)-w.head >= w.maxEvents {
		w.events[w.head] = FrameVerdict{} // release its strings
		w.head++
		s.eventsDropped.Add(1)
		if w.head >= w.maxEvents {
			n := copy(w.events, w.events[w.head:])
			clear(w.events[n:])
			w.events, w.head = w.events[:n], 0
		}
	}
	w.events = append(w.events, fv)
}

// takeEventsLocked drains the event queue, handing its storage to the
// caller: the server never writes the returned slice again. The next queue
// starts at the size this hand-off needed, so a steady stream of calls does
// not regrow it from nothing each time. Caller holds winMu.
func (s *NetworkServer) takeEventsLocked() []FrameVerdict {
	w := s.win
	if len(w.events) == w.head {
		w.events, w.head = w.events[:0], 0
		return nil
	}
	evs := w.events[w.head:]
	w.events, w.head = make([]FrameVerdict, 0, len(evs)), 0
	return evs
}
