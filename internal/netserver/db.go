package netserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"softlora/internal/core"
)

// DefaultShards is the number of independently locked database partitions.
// Power of two so the shard index is a mask of the device-ID hash.
const DefaultShards = 64

// DefaultJitterHz is the per-observation estimation jitter assumed when an
// observation does not carry one (JitterHz <= 0): the paper's 120 Hz
// estimation resolution, a neutral weight.
const DefaultJitterHz = 120

// PHYObservation is one gateway's side-effect-free PHY-stage result for one
// received frame copy: everything the network server needs to fuse, judge
// and timestamp the frame, and nothing that touches the bias database.
type PHYObservation struct {
	// GatewayID identifies the receiver that produced the observation.
	GatewayID string
	// DeviceID is the frame's claimed source device.
	DeviceID string
	// FrameID identifies the frame so copies heard by several gateways
	// deduplicate. Empty means "unknown": the observation is treated as
	// its own frame and never merged.
	FrameID string
	// UplinkIndex is the frame's position in the commit order (the batch
	// index at a gateway, a sequence number in a deployment). CheckBatch
	// commits frames in ascending UplinkIndex so database state is
	// independent of arrival interleaving.
	UplinkIndex int64
	// FBHz is the estimated frequency bias δ = δTx − δRx.
	FBHz float64
	// JitterHz is the PHY stage's per-frame FB estimation jitter (1σ, Hz)
	// through this receiver's link — the fusion weight. <= 0 means
	// unknown (DefaultJitterHz is assumed); a positive value below 1 Hz
	// counts as 1 Hz.
	JitterHz float64
	// ArrivalTime is the PHY-timestamped preamble onset on the channel
	// timeline (seconds).
	ArrivalTime float64
	// OnsetSample is the onset position within the receiver's capture.
	OnsetSample int
}

// FrameVerdict is the network server's per-frame decision after dedup and
// fusion.
type FrameVerdict struct {
	// DeviceID and FrameID identify the judged frame.
	DeviceID string
	FrameID  string
	// Verdict is the §7.2 decision, made once per frame.
	Verdict core.Verdict
	// FBHz is the fused (inverse-variance weighted) frequency bias the
	// verdict was computed from.
	FBHz float64
	// JitterHz is the fused estimate's jitter: 1/sqrt(Σ 1/σi²), at least
	// as tight as the best contributing receiver.
	JitterHz float64
	// ArrivalTime and GatewayID are the PHY timestamp and identity of the
	// lowest-jitter receiver — timestamping uses one receiver's PHY
	// clock, not a blend of unsynchronized ones.
	ArrivalTime float64
	GatewayID   string
	// Receivers is how many observations the frame arrived with (dedup
	// count + 1).
	Receivers int
	// OutliersRejected is how many of those observations the fusion's
	// consistency gate excluded from the weighted mean (a receiver that
	// lost the tone returns a gross outlier, not a jitter-sized error).
	OutliersRejected int
	// QuarantinedExcluded is how many observations came from gateways the
	// health tracker currently quarantines; they were excluded from the
	// fusion (but still tracked for probation recovery).
	QuarantinedExcluded int
	// Revised marks a post-commit reconciliation event: a copy of the
	// frame arrived after its verdict committed, the fused estimate was
	// recomputed, and the verdict flipped. The original fold stands — a
	// revision is a notification, never a second database update.
	Revised bool
	// PrevVerdict is the originally committed verdict when Revised.
	PrevVerdict core.Verdict
}

// Stats are cumulative network-server counters.
type Stats struct {
	// FramesChecked is the number of per-frame verdicts issued.
	FramesChecked int64
	// Observations is the number of PHYObservations consumed.
	Observations int64
	// DuplicatesSuppressed counts observations merged into another
	// observation of the same frame instead of receiving their own
	// verdict.
	DuplicatesSuppressed int64
	// Evicted counts device records removed by the TTL sweep
	// (EvictExpired), cumulatively.
	Evicted int64
	// WindowMerged counts observations that fused into a pending window
	// entry opened by an earlier Check/CheckBatch call — the cross-call
	// duplicates the streaming window exists to suppress.
	WindowMerged int64
	// LateObservations counts copies that arrived after their frame's
	// verdict committed and were reconciled against the committed state.
	LateObservations int64
	// VerdictsRevised counts late reconciliations that flipped the
	// committed verdict (emitted as Revised FrameVerdicts).
	VerdictsRevised int64
	// WindowShed counts pending frames force-committed early because the
	// window hit its MaxPending memory cap (oldest first) — a duplicate
	// storm degrades dedup, never memory.
	WindowShed int64
	// WindowEventsDropped counts committed verdicts discarded because the
	// window's event queue overflowed without being polled.
	WindowEventsDropped int64
	// GatewaysQuarantined counts health-tracker quarantine transitions,
	// cumulatively (a gateway that recovers and relapses counts twice).
	GatewaysQuarantined int64
}

// Config configures a NetworkServer. Zero values select the defaults
// named on each field. The verdict policy's remaining parameters are the
// paper-calibrated constants of package core: the deviation multiplier
// core.DefaultDevMultiplier, the EWMA weight core.DefaultEWMAAlpha and the
// enrollment period core.DefaultEnrollFrames.
type Config struct {
	// ToleranceHz is the minimum acceptance half-width
	// (core.DefaultToleranceHz when 0).
	ToleranceHz float64
	// Shards is the number of database partitions, rounded up to a power
	// of two (DefaultShards when 0).
	Shards int
	// RecordTTL evicts device records not observed for this many seconds
	// on the observation timeline (see EvictExpired). Zero disables
	// aging. Only sweeps triggered by a Flusher or by explicit
	// EvictExpired calls apply it; the verdict hot path never scans.
	RecordTTL float64
	// Window configures the streaming cross-call frame dedup window.
	// Window.Hold <= 0 (the zero value) disables it: Check/CheckBatch
	// judge frames immediately, deduplicating only within one call.
	Window WindowConfig
	// Health configures the gateway health tracker. Health.Enabled false
	// (the zero value) disables it: every receiver's observation joins
	// the fusion regardless of its history.
	Health HealthConfig
}

// shard is one independently read-write-locked database partition.
// Steady-state traffic is read-dominated in aggregate — Record lookups,
// Devices counts, Save/flush snapshots — while only Check/Enroll/Load
// mutate, so readers share the lock and a flusher serializing a shard
// never blocks reads of the other 63.
type shard struct {
	mu      sync.RWMutex
	devices map[string]*core.BiasRecord //softlora:guarded-by mu
	// version counts membership changes: every write to devices bumps it —
	// an ID added (checkDevice, Enroll) or deleted (EvictExpired), a record
	// pointer replaced (Enroll), the map swapped (installStaged). While it
	// holds still, the map's IDs and record pointers do too, which is what
	// lets a Snapshotter reuse a shard's sorted order (snapshotShardOrdered).
	version uint64 //softlora:guarded-by mu
	// dirty marks the shard as modified since its last successful
	// snapshot flush. Set by every mutation, cleared by the flusher with
	// Swap(false); a mutation racing the flush re-marks it so the next
	// cycle rewrites the shard — flushes may repeat, never skip.
	dirty atomic.Bool
}

// markDirty flags the shard for the next incremental flush. Cheaper than
// an unconditional atomic store on the hot path: steady-state traffic
// re-dirties an already-dirty shard, so the load almost always short-
// circuits.
func (sh *shard) markDirty() {
	if !sh.dirty.Load() {
		sh.dirty.Store(true)
	}
}

// NetworkServer owns the per-device frequency-bias database behind sharded
// locks and applies the §7.2 verdict once per frame. All methods are safe
// for concurrent use from any number of gateways.
type NetworkServer struct {
	tol float64
	ttl float64

	shards []shard

	// win is the streaming dedup window (nil when disabled), guarded by
	// winMu; health is the gateway health tracker (nil when disabled).
	// Lock order: winMu may be held while taking shard locks (window
	// commits fold into the database); shard locks never take winMu.
	winMu  sync.Mutex
	win    *window
	health *healthTracker

	// latest is the max observation ArrivalTime seen, as float64 bits —
	// the "now" of the TTL sweep, so aging follows the deployment's own
	// timeline instead of wall clock.
	latest atomic.Uint64

	framesChecked atomic.Int64
	observations  atomic.Int64
	duplicates    atomic.Int64
	evicted       atomic.Int64
	winMerged     atomic.Int64
	lateObs       atomic.Int64
	revised       atomic.Int64
	shed          atomic.Int64
	eventsDropped atomic.Int64
}

// New builds a NetworkServer with the given configuration.
func New(cfg Config) *NetworkServer {
	if cfg.ToleranceHz <= 0 {
		cfg.ToleranceHz = core.DefaultToleranceHz
	}
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	// Round up to a power of two so shardFor can mask instead of mod.
	pow := 1
	for pow < n {
		pow <<= 1
	}
	s := &NetworkServer{
		tol:    cfg.ToleranceHz,
		ttl:    cfg.RecordTTL,
		shards: make([]shard, pow),
	}
	for i := range s.shards {
		s.shards[i].devices = make(map[string]*core.BiasRecord) //softlora:lock-ok constructor; the server is not shared yet
	}
	if cfg.Window.Hold > 0 {
		s.win = newWindow(cfg.Window)
	}
	if cfg.Health.Enabled {
		s.health = newHealthTracker(cfg.Health)
	}
	return s
}

// fnv32a is an inlined allocation-free FNV-1a over the device ID —
// hash/fnv's New32a would heap-allocate on the per-frame Check hot path.
//
//softlora:allocfree
func fnv32a(s string) uint32 {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// shardFor maps a device ID onto its partition.
//
//softlora:allocfree
func (s *NetworkServer) shardFor(deviceID string) *shard {
	return &s.shards[fnv32a(deviceID)&uint32(len(s.shards)-1)]
}

// checkDevice applies the shared §7.2 record policy under the device's
// shard lock, stamping the record's LastSeen with the frame's arrival time
// and marking the shard dirty for the incremental flusher. A replay verdict
// still touches LastSeen: the device is demonstrably of interest, and
// evicting a record mid-attack would let the attacker re-enroll as the
// device it is impersonating. A known device's record is updated in place,
// so only a first-seen device's new record is stored.
//
//softlora:allocfree
func (s *NetworkServer) checkDevice(deviceID string, fbHz, now float64) core.Verdict {
	sh := s.shardFor(deviceID)
	sh.mu.Lock()
	old := sh.devices[deviceID]
	verdict, rec := core.CheckRecord(old, fbHz, s.tol, core.DefaultDevMultiplier, core.DefaultEWMAAlpha, core.DefaultEnrollFrames)
	if rec != nil {
		rec.Touch(now)
		if rec != old {
			sh.devices[deviceID] = rec
			sh.version++
		}
		sh.markDirty()
	}
	sh.mu.Unlock()
	s.observeTime(now)
	s.framesChecked.Add(1)
	return verdict
}

// observeTime advances the server's notion of "now" on the observation
// timeline (monotonic max). Non-finite and non-advancing times are
// ignored; the common case is one load + compare, no CAS.
func (s *NetworkServer) observeTime(now float64) {
	if math.IsNaN(now) || math.IsInf(now, 0) {
		return
	}
	for {
		old := s.latest.Load()
		if now <= math.Float64frombits(old) {
			return
		}
		if s.latest.CompareAndSwap(old, math.Float64bits(now)) {
			return
		}
	}
}

// LatestObservation returns the newest ArrivalTime the server has seen —
// the TTL sweep's reference clock.
func (s *NetworkServer) LatestObservation() float64 {
	return math.Float64frombits(s.latest.Load())
}

// Check judges a single-receiver frame: the observation is its own frame
// (no fusion) and the database is read and updated once, under the
// device's shard lock. This is the single-gateway hot path.
//
// With the streaming window enabled and a non-empty FrameID, Check
// ingests the observation instead: if the frame commits during this call
// (it filled to MaxReceivers) its verdict is returned, otherwise
// core.VerdictPending — the committed verdict surfaces later from
// CheckBatch, PollWindow, AdvanceWindow or DrainWindow.
//
// An observation without a device ID fails closed in either mode, as in
// CheckFrame and windowed ingest: it is judged core.VerdictReplay, stores
// no record and is not counted.
func (s *NetworkServer) Check(obs PHYObservation) core.Verdict {
	if obs.DeviceID == "" {
		return core.VerdictReplay
	}
	if s.win != nil && obs.FrameID != "" {
		return s.ingestOne(&obs)
	}
	s.observations.Add(1)
	return s.checkDevice(obs.DeviceID, obs.FBHz, obs.ArrivalTime)
}

// Frame-level errors.
var (
	ErrNoObservations = errors.New("netserver: frame has no observations")
	ErrMixedFrame     = errors.New("netserver: observations from different devices in one frame")
	ErrNoDevice       = errors.New("netserver: observation without a device ID")
)

// ConsistencySigma is the outlier gate of the fusion (fuseDetail): an
// observation whose FB disagrees with the best receiver's by more than this
// many combined standard deviations is excluded from the weighted mean.
// Estimation errors are jitter-sized Gaussians only while a receiver holds
// the tone; a receiver that lost it (deep-fade link) returns a gross outlier
// that inverse-variance weighting alone cannot discount enough. A replay's
// bias shift is common-mode across receivers, so the gate never masks one.
const ConsistencySigma = 8

// minJitterHz floors a usable jitter: the gateway's PHY stage never reports
// less (fbJitterHz clamps its Cramér-Rao estimate to 1 Hz), and below about
// 1e-154 Hz the inverse-variance weight 1/j² overflows to +Inf, which
// would turn the fused FB into NaN and a genuine frame into a replay.
const minJitterHz = 1

// effJitter returns an observation's usable jitter given its JitterHz:
// DefaultJitterHz when the PHY stage could not estimate one, and at least
// minJitterHz otherwise.
func effJitter(j float64) float64 {
	if j <= 0 || math.IsNaN(j) || math.IsInf(j, 0) {
		return DefaultJitterHz
	}
	if j < minJitterHz {
		return minJitterHz
	}
	return j
}

// fuseDetail combines multi-receiver observations of one frame into a
// fused FB estimate: the lowest-jitter receiver with a finite estimate
// anchors the fusion (and provides the PHY timestamp), observations
// inconsistent with it beyond ConsistencySigma — or with a non-finite FB —
// are rejected as outliers, and the rest are averaged by inverse-variance
// weight. If no receiver produced a finite estimate the fused FB is NaN,
// which the verdict stage fails closed on (core.CheckRecord flags
// non-finite estimates as replays without touching the database). Fusion
// itself does not touch the database. Observations without a device ID are
// rejected with ErrNoDevice: a nameless frame would fold every such device
// into one shared record.
//
// Both slices are optional. When rejected is non-nil (len(obs)),
// rejected[i] reports whether the fusion's consistency gate excluded
// obs[i] — the health tracker's raw material. When elect is non-nil
// (len(obs)), elect[i] multiplies obs[i]'s jitter in the anchor election
// ONLY (the health tracker's per-gateway penalty, see electWeightLocked): a
// sick receiver stops winning the lowest-jitter election — and with it the
// frame's PHY timestamp — by reporting an optimistic jitter, while the
// consistency gate and the inverse-variance averaging still use every
// copy's raw jitter, so the fused numbers are unchanged unless the anchor
// actually moves.
func fuseDetail(obs []PHYObservation, rejected []bool, elect []float64) (FrameVerdict, error) {
	if len(obs) == 0 {
		return FrameVerdict{}, ErrNoObservations
	}
	if obs[0].DeviceID == "" {
		return FrameVerdict{}, ErrNoDevice
	}
	fv := FrameVerdict{
		DeviceID:  obs[0].DeviceID,
		FrameID:   obs[0].FrameID,
		Receivers: len(obs),
	}
	ew := func(i int) float64 {
		if i < len(elect) {
			return elect[i]
		}
		return 1
	}
	best := -1
	for i := range obs {
		o := &obs[i]
		if o.DeviceID != fv.DeviceID {
			return FrameVerdict{}, fmt.Errorf("%w: %q vs %q", ErrMixedFrame, o.DeviceID, fv.DeviceID)
		}
		if math.IsNaN(o.FBHz) || math.IsInf(o.FBHz, 0) {
			continue
		}
		if best < 0 || effJitter(o.JitterHz)*ew(i) < effJitter(obs[best].JitterHz)*ew(best) {
			best = i
		}
	}
	if best < 0 {
		fv.FBHz = math.NaN()
		fv.JitterHz = math.NaN()
		fv.OutliersRejected = len(obs)
		fv.ArrivalTime = obs[0].ArrivalTime
		fv.GatewayID = obs[0].GatewayID
		for i := range rejected {
			rejected[i] = true
		}
		return fv, nil
	}
	bestJ := effJitter(obs[best].JitterHz)
	var sumW, sumWFB float64
	for i := range obs {
		o := &obs[i]
		j := effJitter(o.JitterHz)
		gate := ConsistencySigma * math.Hypot(j, bestJ)
		if !(math.Abs(o.FBHz-obs[best].FBHz) <= gate) {
			fv.OutliersRejected++
			if rejected != nil {
				rejected[i] = true
			}
			continue
		}
		w := 1 / (j * j)
		sumW += w
		sumWFB += w * o.FBHz
	}
	fv.FBHz = sumWFB / sumW
	fv.JitterHz = 1 / math.Sqrt(sumW)
	fv.ArrivalTime = obs[best].ArrivalTime
	fv.GatewayID = obs[best].GatewayID
	return fv, nil
}

// commitObs is the single commit path every frame takes — CheckFrame,
// window commits and window sheds all end here: health-filter the copies,
// fuse what remains, fold the fused estimate into the database once, and
// feed the per-receiver outcomes back to the health tracker. Copies from
// quarantined gateways are excluded from the fusion unless every copy is
// quarantined (fail open: the frame must still be judged).
func (s *NetworkServer) commitObs(obs []PHYObservation) (FrameVerdict, error) {
	active, excluded := obs, []PHYObservation(nil)
	var rejected []bool
	var elect []float64
	if s.health != nil {
		active, excluded, elect = s.health.filter(obs)
		rejected = make([]bool, len(active))
	}
	fv, err := fuseDetail(active, rejected, elect)
	if err != nil {
		return fv, err
	}
	fv.Receivers = len(obs)
	fv.QuarantinedExcluded = len(excluded)
	fv.Verdict = s.checkDevice(fv.DeviceID, fv.FBHz, fv.ArrivalTime)
	if s.health != nil {
		s.health.observe(&fv, active, rejected, excluded, refArrival(obs))
	}
	return fv, nil
}

// peekVerdict evaluates the §7.2 policy against a copy of the device's
// current record without folding anything — the read-only re-check late
// window reconciliation uses. The copy is judged against the database as
// it stands now, after the frame's original fold.
func (s *NetworkServer) peekVerdict(deviceID string, fbHz float64) core.Verdict {
	sh := s.shardFor(deviceID)
	sh.mu.RLock()
	rec, ok := sh.devices[deviceID]
	var cp core.BiasRecord
	if ok {
		cp = *rec
	}
	sh.mu.RUnlock()
	var rp *core.BiasRecord
	if ok {
		rp = &cp
	}
	v, _ := core.CheckRecord(rp, fbHz, s.tol, core.DefaultDevMultiplier, core.DefaultEWMAAlpha, core.DefaultEnrollFrames)
	return v
}

// CheckFrame judges one frame heard by one or more receivers: the
// observations (all from the same claimed device) are fused and the §7.2
// verdict runs once, so N receivers cause one database update, not N.
// CheckFrame is the "every copy already in hand" path: it judges
// immediately even when the streaming window is enabled (use Check or
// CheckBatch to let copies accumulate across calls).
func (s *NetworkServer) CheckFrame(obs []PHYObservation) (FrameVerdict, error) {
	fv, err := s.commitObs(obs)
	if err != nil {
		return fv, err
	}
	s.observations.Add(int64(len(obs)))
	s.duplicates.Add(int64(len(obs) - 1))
	return fv, nil
}

// CheckBatch judges a batch of observations from any number of gateways:
// observations sharing (DeviceID, FrameID) deduplicate into one frame
// (empty FrameIDs never merge), frames commit in ascending UplinkIndex
// (ties broken by first appearance), and one FrameVerdict per frame is
// returned in commit order. Database state after a CheckBatch is therefore
// a pure function of the batch's contents, regardless of how the
// observations were gathered or ordered by the callers.
//
// A mid-batch error returns the verdicts of the frames that already
// committed ALONGSIDE the error — their database folds have happened, and
// the caller must be able to see them.
//
// With the streaming window enabled, CheckBatch instead ingests the
// observations into the cross-call window and returns every FrameVerdict
// that committed during the call — including frames opened by earlier
// calls whose hold expired, and Revised events from late reconciliation.
// The returned verdicts need not correspond to this call's frames.
//
// In either mode the returned slice is the caller's: the server keeps no
// reference to it and never writes it again.
func (s *NetworkServer) CheckBatch(obs []PHYObservation) ([]FrameVerdict, error) {
	if s.win != nil {
		return s.ingestBatch(obs)
	}
	type group struct {
		index int64 // min UplinkIndex of the group
		obs   []PHYObservation
	}
	var groups []*group
	byKey := make(map[frameKey]*group, len(obs))
	for _, o := range obs {
		// The key holds the device ID, so a FrameID collision across
		// devices yields separate frames rather than a mixed group.
		key := frameKey{o.DeviceID, o.FrameID}
		if o.FrameID != "" {
			if g, ok := byKey[key]; ok {
				g.obs = append(g.obs, o)
				if o.UplinkIndex < g.index {
					g.index = o.UplinkIndex
				}
				continue
			}
		}
		g := &group{index: o.UplinkIndex, obs: []PHYObservation{o}}
		groups = append(groups, g)
		if o.FrameID != "" {
			byKey[key] = g
		}
	}
	sort.SliceStable(groups, func(i, j int) bool { return groups[i].index < groups[j].index })
	verdicts := make([]FrameVerdict, 0, len(groups))
	for _, g := range groups {
		fv, err := s.CheckFrame(g.obs)
		if err != nil {
			return verdicts, fmt.Errorf("netserver: frame %d of batch (device %q, frame %q): %w",
				len(verdicts), g.obs[0].DeviceID, g.obs[0].FrameID, err)
		}
		verdicts = append(verdicts, fv)
	}
	return verdicts, nil
}

// Enroll pre-loads a device record (offline database construction, §7.2).
// A non-finite fbHz (NaN or ±Inf) stores nothing and leaves any record the
// device already has: a non-finite record fails validation, so it could
// never be snapshotted, and every later flush of its shard would fail.
func (s *NetworkServer) Enroll(deviceID string, fbHz float64, frames int) {
	if math.IsNaN(fbHz) || math.IsInf(fbHz, 0) {
		return
	}
	if frames < 1 {
		frames = 1
	}
	sh := s.shardFor(deviceID)
	sh.mu.Lock()
	sh.devices[deviceID] = &core.BiasRecord{Mean: fbHz, Min: fbHz, Max: fbHz, Count: frames}
	sh.version++
	sh.markDirty()
	sh.mu.Unlock()
}

// Record returns a copy of the learned state for a device and whether it
// exists.
func (s *NetworkServer) Record(deviceID string) (core.BiasRecord, bool) {
	sh := s.shardFor(deviceID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rec, ok := sh.devices[deviceID]
	if !ok {
		return core.BiasRecord{}, false
	}
	return *rec, true
}

// Devices returns the number of devices in the database.
func (s *NetworkServer) Devices() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.devices)
		sh.mu.RUnlock()
	}
	return n
}

// Stats returns the cumulative counters. With the streaming window, the
// ingest counters advance once per Check or CheckBatch call.
func (s *NetworkServer) Stats() Stats {
	st := Stats{
		FramesChecked:        s.framesChecked.Load(),
		Observations:         s.observations.Load(),
		DuplicatesSuppressed: s.duplicates.Load(),
		Evicted:              s.evicted.Load(),
		WindowMerged:         s.winMerged.Load(),
		LateObservations:     s.lateObs.Load(),
		VerdictsRevised:      s.revised.Load(),
		WindowShed:           s.shed.Load(),
		WindowEventsDropped:  s.eventsDropped.Load(),
	}
	if s.health != nil {
		st.GatewaysQuarantined = s.health.quarantines.Load()
	}
	return st
}

// EvictExpired removes device records whose LastSeen is older than ttl
// seconds before now (both on the observation timeline) and returns how
// many were evicted. Records with a zero LastSeen — written before aging
// existed, or enrolled offline — are stamped with now on the first sweep
// instead of evicted, so a freshly migrated fleet gets a full TTL of grace
// rather than being wiped by its first sweep. ttl <= 0 is a no-op. Shards
// that lose or stamp records are marked dirty so the next flush persists
// the eviction and the grace stamp (a restart must not grant the grace
// again).
func (s *NetworkServer) EvictExpired(now, ttl float64) int {
	if ttl <= 0 || math.IsNaN(now) || math.IsInf(now, 0) {
		return 0
	}
	horizon := now - ttl
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n, stamped := 0, false
		//softlora:nondeterministic-ok per-record predicate; the surviving set and count are order-independent
		for id, rec := range sh.devices {
			if rec.LastSeen == 0 {
				rec.LastSeen = now
				stamped = true
				continue
			}
			if rec.LastSeen < horizon {
				delete(sh.devices, id)
				n++
			}
		}
		if n > 0 {
			sh.version++
		}
		if n > 0 || stamped {
			sh.markDirty()
		}
		sh.mu.Unlock()
		total += n
	}
	if total > 0 {
		s.evicted.Add(int64(total))
	}
	return total
}

// Sweep runs EvictExpired at the server's configured TTL against its own
// latest observed time — the form the background Flusher calls each cycle.
func (s *NetworkServer) Sweep() int {
	return s.EvictExpired(s.LatestObservation(), s.ttl)
}

// snapshotShard appends shard i's records to dst under the shard's read
// lock — the flusher sorts, encodes and writes the copy outside the lock
// so a slow disk never stalls verdict traffic. Records are copied by
// value: the originals keep mutating under Check while the flush encodes.
func (s *NetworkServer) snapshotShard(i int, dst []snapRecord) []snapRecord {
	sh := &s.shards[i]
	sh.mu.RLock()
	//softlora:nondeterministic-ok appends in map order; callers sort by ID before encoding
	for id, rec := range sh.devices {
		dst = append(dst, snapRecord{id: id, rec: *rec})
	}
	sh.mu.RUnlock()
	return dst
}

// shardOrder is one shard's membership in ascending-ID order: its IDs and
// the record pointers its map held for them at membership version version.
// The zero shardOrder is that of a new server's shard: empty, at version 0.
type shardOrder struct {
	version uint64
	entries []orderEntry
}

// orderEntry is one ID of a shardOrder and its record pointer.
type orderEntry struct {
	id  string
	rec *core.BiasRecord
}

// snapshotShardOrdered appends shard i's records to dst in ascending-ID
// order, as snapshotShard followed by sortRecords would, through ord, the
// order kept from the shard's last snapshot. While the shard's membership
// version equals ord's, its map holds exactly ord's IDs and record
// pointers, so nothing is sorted. Otherwise ord is rebuilt: IDs and
// pointers are read under the read lock and sorted after releasing it;
// should the membership change before the lock is taken again, the rebuild
// repeats with the sort under the lock, so it takes at most two passes.
// Either way the records are copied under one hold of the lock at which
// ord matches the map: the copy is the shard at one instant.
func (s *NetworkServer) snapshotShardOrdered(i int, ord *shardOrder, dst []snapRecord) []snapRecord {
	sh := &s.shards[i]
	sh.mu.RLock()
	for attempt := 0; sh.version != ord.version; attempt++ {
		ord.version, ord.entries = sh.version, slices.Grow(ord.entries[:0], len(sh.devices))
		//softlora:nondeterministic-ok appends in map order; sorted by ID below
		for id, rec := range sh.devices {
			ord.entries = append(ord.entries, orderEntry{id: id, rec: rec})
		}
		if attempt == 0 {
			sh.mu.RUnlock()
		}
		slices.SortFunc(ord.entries, func(a, b orderEntry) int { return strings.Compare(a.id, b.id) })
		if attempt == 0 {
			sh.mu.RLock()
		}
	}
	for _, e := range ord.entries {
		dst = append(dst, snapRecord{id: e.id, rec: *e.rec})
	}
	sh.mu.RUnlock()
	return dst
}

// installShards replaces the whole database with devices, re-hashed onto
// the current shard count (see installStaged).
func (s *NetworkServer) installShards(devices map[string]*core.BiasRecord) {
	staged := make([]map[string]*core.BiasRecord, len(s.shards))
	for i := range staged {
		staged[i] = make(map[string]*core.BiasRecord)
	}
	//softlora:nondeterministic-ok re-hashing into maps; shard assignment is a pure function of the ID
	for id, rec := range devices {
		staged[fnv32a(id)&uint32(len(s.shards)-1)][id] = rec
	}
	s.installStaged(staged)
}

// installRecords replaces the whole database with decoded snapshot files —
// a later file wins on a repeated ID — and advances the observation clock
// to the newest LastSeen installed. It returns how many devices it
// installed. Records go straight into per-shard maps presized from their
// IDs' hashes, and each map value points into its file's decoded slice
// (which stays allocated while any of its records is in the database).
func (s *NetworkServer) installRecords(files [][]snapRecord) int {
	mask := uint32(len(s.shards) - 1)
	sizes := make([]int, len(s.shards))
	for _, recs := range files {
		for i := range recs {
			sizes[fnv32a(recs[i].id)&mask]++
		}
	}
	staged := make([]map[string]*core.BiasRecord, len(s.shards))
	for i := range staged {
		staged[i] = make(map[string]*core.BiasRecord, sizes[i])
	}
	for _, recs := range files {
		for i := range recs {
			staged[fnv32a(recs[i].id)&mask][recs[i].id] = &recs[i].rec
		}
	}
	devices, latest := 0, math.Inf(-1)
	for _, m := range staged {
		devices += len(m)
		//softlora:nondeterministic-ok max over values is order-independent
		for _, rec := range m {
			latest = max(latest, rec.LastSeen)
		}
	}
	s.installStaged(staged)
	s.observeTime(latest)
	return devices
}

// installStaged swaps in one staged map per shard: a concurrent Check
// serializes against each shard's lock and sees either the old or the new
// record set for its shard, never a torn mix within one. Every shard is
// marked dirty so the first flush after a load persists the full database
// (this is also what migrates a legacy monolithic snapshot, or version-1
// shard files, to version-2 sharded files).
func (s *NetworkServer) installStaged(staged []map[string]*core.BiasRecord) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.devices = staged[i]
		sh.version++
		sh.markDirty()
		sh.mu.Unlock()
	}
}

// Save serializes the database in the legacy JSON format: one object
// keyed by device ID, sorted, indented two spaces, each value a
// core.BiasRecord (last_seen_s omitted while zero). Shards are merged
// before encoding, so equal database states serialize to equal bytes.
//
// Save offers no atomicity: it writes whatever the caller's io.Writer is.
// Use SaveFile (temp + fsync + rename + checksum) for a durable single
// file, or a Snapshotter/Flusher for sharded incremental snapshots.
func (s *NetworkServer) Save(w io.Writer) error {
	merged := make(map[string]*core.BiasRecord, s.Devices())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		//softlora:nondeterministic-ok merges into a map; encoding/json sorts map keys
		for id, rec := range sh.devices {
			cp := *rec
			merged[id] = &cp
		}
		sh.mu.RUnlock()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(merged); err != nil {
		return fmt.Errorf("netserver: saving bias database: %w", err)
	}
	return nil
}

// Load replaces the database from a legacy JSON database such as Save
// writes. Every record is validated first (core.ErrBadDatabase otherwise)
// and a failed load leaves the current database untouched.
func (s *NetworkServer) Load(r io.Reader) error {
	devices, err := core.DecodeDatabase(r)
	if err != nil {
		return err
	}
	s.installShards(devices)
	return nil
}
