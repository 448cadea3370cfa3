package netserver

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Gateway-health defaults.
const (
	// DefaultHealthWindow is how many recent frames per gateway the health
	// score is computed over.
	DefaultHealthWindow = 64
	// DefaultHealthMinSamples is the minimum sample count before a gateway
	// can be judged at all — a receiver is innocent until observed enough.
	DefaultHealthMinSamples = 16
	// DefaultHealthProbation is how many consecutive clean shadow samples a
	// quarantined gateway must produce before it is reinstated.
	DefaultHealthProbation = 32
)

// Gateway-health quarantine thresholds.
const (
	// healthMaxOutlierRate quarantines a gateway whose copies the fusion's
	// consistency gate rejects more often than this.
	healthMaxOutlierRate = 0.5
	// healthMaxSkew (seconds) quarantines a gateway whose PHY timestamps
	// deviate from the per-frame reference arrival by more than this on
	// average — a drifting or misconfigured clock.
	healthMaxSkew = 0.05
)

// HealthConfig configures the gateway health tracker. The zero value
// (Enabled false) disables it.
type HealthConfig struct {
	// Enabled turns the tracker on.
	Enabled bool
	// Window is the per-gateway sample ring size (DefaultHealthWindow
	// when 0).
	Window int
	// MinSamples is the minimum ring fill before quarantine decisions
	// (DefaultHealthMinSamples when 0).
	MinSamples int
	// Probation is the consecutive-clean-sample streak that reinstates a
	// quarantined gateway (DefaultHealthProbation when 0).
	Probation int
}

// gwHealth is one gateway's rolling record: a ring of (rejected, skew)
// samples plus quarantine state.
type gwHealth struct {
	rejected []bool
	skew     []float64
	next     int
	n        int

	quarantined bool
	cleanStreak int
}

// healthTracker scores gateways and quarantines persistently sick ones out
// of fusion. It has its own lock, below winMu and disjoint from the shard
// locks: filter/observe are called from commitObs with winMu possibly
// held, and never take any other lock.
type healthTracker struct {
	mu  sync.Mutex
	cfg HealthConfig
	gws map[string]*gwHealth

	// quarantines counts quarantine transitions, cumulatively.
	quarantines atomic.Int64
}

func newHealthTracker(cfg HealthConfig) *healthTracker {
	if cfg.Window <= 0 {
		cfg.Window = DefaultHealthWindow
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = DefaultHealthMinSamples
	}
	if cfg.MinSamples > cfg.Window {
		cfg.MinSamples = cfg.Window
	}
	if cfg.Probation <= 0 {
		cfg.Probation = DefaultHealthProbation
	}
	return &healthTracker{cfg: cfg, gws: make(map[string]*gwHealth)}
}

// refArrival returns the frame's reference arrival time — the median of
// its copies' PHY timestamps, robust to a minority of skewed clocks. With
// an even count the lower median is used (deterministic, no averaging).
func refArrival(obs []PHYObservation) float64 {
	times := make([]float64, 0, len(obs))
	for _, o := range obs {
		if !math.IsNaN(o.ArrivalTime) && !math.IsInf(o.ArrivalTime, 0) {
			times = append(times, o.ArrivalTime)
		}
	}
	if len(times) == 0 {
		return math.NaN()
	}
	sort.Float64s(times)
	return times[(len(times)-1)/2]
}

// quarantineElectWeight is the election-weight multiplier for a
// quarantined gateway's copies on the fail-open path: large enough that a
// quarantined receiver can never out-elect any finite healthy jitter, while
// keeping the weight finite so the comparison stays well ordered.
const quarantineElectWeight = 1e6

// filter splits a frame's copies into fusion-eligible and quarantined, and
// returns each active copy's anchor-election weight (aligned with active).
// Fail open: if every copy is from a quarantined gateway, all of them stay
// active — the frame must still be judged by somebody — but their election
// weights stay quarantine-dominated, so a mixed set can never elect a
// quarantined receiver as the frame's anchor.
func (h *healthTracker) filter(obs []PHYObservation) (active, excluded []PHYObservation, elect []float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, o := range obs {
		if g, ok := h.gws[o.GatewayID]; ok && g.quarantined {
			excluded = append(excluded, o)
		} else {
			active = append(active, o)
			elect = append(elect, h.electWeightLocked(o.GatewayID))
		}
	}
	if len(active) == 0 {
		elect = elect[:0]
		for _, o := range obs {
			elect = append(elect, h.electWeightLocked(o.GatewayID))
		}
		return obs, nil, elect
	}
	return active, excluded, elect
}

// electWeightLocked scores one gateway's fitness to anchor a fusion: the
// anchor provides the frame's PHY timestamp, so a receiver whose recent
// copies keep getting rejected should not win the lowest-jitter election
// merely by reporting an optimistic jitter. Healthy or under-observed
// gateways weigh 1; a gateway with enough samples is penalized linearly in
// its outlier rate (up to 5× at rate 1), and quarantined gateways (seen
// here only on the fail-open path) carry the quarantine multiplier on top.
// Caller holds h.mu.
func (h *healthTracker) electWeightLocked(gatewayID string) float64 {
	g := h.gws[gatewayID]
	if g == nil || g.n < h.cfg.MinSamples {
		return 1
	}
	rejects := 0
	for i := 0; i < g.n; i++ {
		if g.rejected[i] {
			rejects++
		}
	}
	w := 1 + 4*float64(rejects)/float64(g.n)
	if g.quarantined {
		w *= quarantineElectWeight
	}
	return w
}

// observe feeds one committed frame's per-receiver outcomes back into the
// tracker. Active copies record their fusion-gate outcome and clock skew;
// excluded (quarantined) copies record a shadow sample — judged against
// the fused result they did not contribute to — which is what drives
// probation recovery.
func (h *healthTracker) observe(fv *FrameVerdict, active []PHYObservation, rejected []bool, excluded []PHYObservation, ref float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, o := range active {
		rej := i < len(rejected) && rejected[i]
		h.sample(o.GatewayID, rej, skewOf(o, ref))
	}
	for _, o := range excluded {
		h.sample(o.GatewayID, shadowOutlier(o, fv), skewOf(o, ref))
	}
}

// skewOf is a copy's clock skew vs the frame's reference arrival; frames
// with a single copy (or no finite reference) contribute zero skew — one
// clock cannot disagree with itself.
func skewOf(o PHYObservation, ref float64) float64 {
	if math.IsNaN(ref) || math.IsNaN(o.ArrivalTime) || math.IsInf(o.ArrivalTime, 0) {
		return 0
	}
	return o.ArrivalTime - ref
}

// shadowOutlier judges a quarantined gateway's copy against the fused
// estimate it was excluded from, with the same gate fuseDetail applies:
// would this copy have been rejected? Non-finite estimates always count as
// outliers.
func shadowOutlier(o PHYObservation, fv *FrameVerdict) bool {
	if math.IsNaN(o.FBHz) || math.IsInf(o.FBHz, 0) {
		return true
	}
	if math.IsNaN(fv.FBHz) || math.IsNaN(fv.JitterHz) {
		return true
	}
	gate := ConsistencySigma * math.Hypot(effJitter(o.JitterHz), fv.JitterHz)
	return !(math.Abs(o.FBHz-fv.FBHz) <= gate)
}

// sample records one (rejected, skew) outcome for a gateway and applies
// the quarantine / probation state machine. Caller holds h.mu.
func (h *healthTracker) sample(gatewayID string, rejected bool, skew float64) {
	if gatewayID == "" {
		return
	}
	g := h.gws[gatewayID]
	if g == nil {
		g = &gwHealth{
			rejected: make([]bool, h.cfg.Window),
			skew:     make([]float64, h.cfg.Window),
		}
		h.gws[gatewayID] = g
	}
	g.rejected[g.next] = rejected
	g.skew[g.next] = skew
	g.next = (g.next + 1) % h.cfg.Window
	if g.n < h.cfg.Window {
		g.n++
	}
	if g.quarantined {
		if rejected || math.Abs(skew) > healthMaxSkew {
			g.cleanStreak = 0
			return
		}
		g.cleanStreak++
		if g.cleanStreak >= h.cfg.Probation {
			// Reinstated: forget the sick history so the next judgment
			// is over post-recovery behaviour only.
			g.quarantined = false
			g.cleanStreak = 0
			g.n, g.next = 0, 0
		}
		return
	}
	if g.n < h.cfg.MinSamples {
		return
	}
	rejects, sumAbsSkew := 0, 0.0
	for i := 0; i < g.n; i++ {
		if g.rejected[i] {
			rejects++
		}
		sumAbsSkew += math.Abs(g.skew[i])
	}
	rate := float64(rejects) / float64(g.n)
	meanSkew := sumAbsSkew / float64(g.n)
	if rate > healthMaxOutlierRate || meanSkew > healthMaxSkew {
		g.quarantined = true
		g.cleanStreak = 0
		h.quarantines.Add(1)
	}
}

// Quarantined returns the currently quarantined gateway IDs, sorted.
func (h *healthTracker) Quarantined() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var ids []string
	//softlora:nondeterministic-ok collected IDs are sorted before return
	for id, g := range h.gws {
		if g.quarantined {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// QuarantinedGateways returns the gateway IDs the health tracker currently
// excludes from fusion (nil when the tracker is disabled or none are
// quarantined), sorted for stable output.
func (s *NetworkServer) QuarantinedGateways() []string {
	if s.health == nil {
		return nil
	}
	return s.health.Quarantined()
}
