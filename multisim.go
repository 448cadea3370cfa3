package softlora

import (
	"fmt"
	"math/rand"

	"softlora/internal/netserver"
	"softlora/internal/radio"
	"softlora/internal/timestamp"
)

// GatewaySite is one gateway of a multi-receiver deployment, pinned to a
// position in the building geometry.
type GatewaySite struct {
	Gateway  *Gateway
	Position radio.Position
}

// MultiGatewaySimulation wires N gateways placed on the paper's building
// geometry to one shared NetworkServer: every uplink is heard by every
// gateway through its own link (per-site path loss, propagation delay and
// independent channel noise), each gateway contributes a side-effect-free
// PHYObservation, and the server dedups the copies and fuses their FB
// estimates before judging the frame once.
type MultiGatewaySimulation struct {
	// Building is the deployment geometry.
	Building *radio.Building
	// Sites are the gateways and their positions.
	Sites []GatewaySite
	// Server is the shared network server every site's gateway feeds.
	Server *netserver.NetworkServer
	// LeadTime is the noise lead-in captured before each frame onset
	// (default 2 ms).
	LeadTime float64
	// Rand drives channel noise and device impairments; required.
	Rand *rand.Rand

	frameSeq int64
}

// NewMultiGatewaySimulation builds n gateways spread across the building's
// top-floor survey columns, all feeding one NetworkServer (cfg.Server when
// set, otherwise a fresh one). Each gateway gets cfg with its own
// GatewayID ("gw-0"…) and the shared server.
func NewMultiGatewaySimulation(b *radio.Building, n int, cfg Config) (*MultiGatewaySimulation, error) {
	if n < 1 {
		return nil, fmt.Errorf("softlora: need at least 1 gateway, got %d", n)
	}
	server := cfg.Server
	if server == nil {
		server = netserver.New(netserver.Config{ToleranceHz: cfg.ToleranceHz})
	}
	cols := b.Columns()
	sites := make([]GatewaySite, n)
	for i := range sites {
		// Spread along the long dimension: one gateway sits mid-building,
		// more divide the column span evenly end to end.
		ci := (len(cols) - 1) / 2
		if n > 1 {
			ci = i * (len(cols) - 1) / (n - 1)
		}
		pos, err := b.Column(cols[ci], b.Floors)
		if err != nil {
			return nil, fmt.Errorf("softlora: placing gateway %d: %w", i, err)
		}
		gcfg := cfg
		gcfg.Server = server
		gcfg.GatewayID = fmt.Sprintf("gw-%d", i)
		gw, err := NewGateway(gcfg)
		if err != nil {
			return nil, fmt.Errorf("softlora: building gateway %d: %w", i, err)
		}
		sites[i] = GatewaySite{Gateway: gw, Position: pos}
	}
	return &MultiGatewaySimulation{
		Building: b,
		Sites:    sites,
		Server:   server,
		Rand:     cfg.Rand,
	}, nil
}

// MultiUplinkReport is the deployment-level outcome of one frame heard by
// the gateway fleet.
type MultiUplinkReport struct {
	// Frame is the network server's fused per-frame decision.
	Frame netserver.FrameVerdict
	// Verdict and Accepted mirror Frame.Verdict in the gateway-level
	// vocabulary.
	Verdict  Verdict
	Accepted bool
	// Timestamps are the reconstructed global times of the frame's data
	// records, from the elected receiver's PHY timestamp (nil when the
	// frame is rejected).
	Timestamps []float64
	// Observations are the successful per-gateway PHY observations the
	// verdict fused, in site order.
	Observations []netserver.PHYObservation
	// SiteErrs is site-aligned: non-nil where a gateway failed to observe
	// the frame (e.g. the link was too weak for onset detection).
	SiteErrs []error
}

// Observe transmits the device's buffered records at global time t0 from
// devPos and collects the fleet's per-gateway PHY observations WITHOUT
// judging the frame: the single emission is rendered once per site
// through that site's link, and every gateway that locks onto it
// contributes one side-effect-free PHYObservation. The caller feeds the
// observations to the shared server itself — the streaming ingest path,
// where copies may be split across Check/CheckBatch calls and the
// server's dedup window reassembles them. At least one gateway must
// receive the frame or an error is returned.
func (m *MultiGatewaySimulation) Observe(d *SimDevice, devPos radio.Position, t0 float64) (*MultiUplinkReport, []timestamp.FrameRecord, error) {
	if m.Rand == nil {
		return nil, nil, ErrNilRand
	}
	if len(m.Sites) == 0 {
		return nil, nil, fmt.Errorf("softlora: simulation has no gateway sites")
	}
	params := m.Sites[0].Gateway.params
	em, records, err := flushEmission(d, params, m.Rand, t0)
	if err != nil {
		return nil, nil, err
	}
	m.frameSeq++
	frameID := fmt.Sprintf("%s#%d", d.ID, m.frameSeq)
	report := &MultiUplinkReport{
		Observations: make([]netserver.PHYObservation, 0, len(m.Sites)),
		SiteErrs:     make([]error, len(m.Sites)),
	}
	for i, site := range m.Sites {
		link := em
		link.PathLossdB = m.Building.LossdB(devPos, site.Position)
		link.Distance = m.Building.Distance(devPos, site.Position)
		sim := Simulation{
			Gateway:       site.Gateway,
			NoiseFloordBm: m.Building.NoiseFloordBm,
			LeadTime:      m.LeadTime,
			Rand:          m.Rand,
		}
		cap, err := sim.CaptureEmission(link)
		if err != nil {
			report.SiteErrs[i] = err
			continue
		}
		obs, err := site.Gateway.Observe(cap, d.ID, frameID)
		if err != nil {
			report.SiteErrs[i] = err
			continue
		}
		obs.UplinkIndex = m.frameSeq
		report.Observations = append(report.Observations, obs)
	}
	if len(report.Observations) == 0 {
		return nil, nil, fmt.Errorf("softlora: no gateway received frame %s: e.g. %w", frameID, firstErr(report.SiteErrs))
	}
	return report, records, nil
}

// Uplink is Observe plus the immediate judgment: the copies are fused and
// the §7.2 verdict runs once, with the frame's data-record timestamps
// reconstructed from the elected receiver on acceptance. Use Observe +
// the server's windowed Check/CheckBatch when copies should accumulate
// across calls instead.
func (m *MultiGatewaySimulation) Uplink(d *SimDevice, devPos radio.Position, t0 float64) (*MultiUplinkReport, []timestamp.FrameRecord, error) {
	report, records, err := m.Observe(d, devPos, t0)
	if err != nil {
		return nil, nil, err
	}
	fv, err := m.Server.CheckFrame(report.Observations)
	if err != nil {
		return nil, nil, err
	}
	report.Resolve(fv, records)
	return report, records, nil
}

// Resolve fills the report's decision fields from a committed verdict —
// split out so streaming callers can resolve a report when the window
// commits its frame, possibly calls later.
func (r *MultiUplinkReport) Resolve(fv netserver.FrameVerdict, records []timestamp.FrameRecord) {
	r.Frame = fv
	r.Verdict = verdictFromCore(fv.Verdict)
	r.Accepted = r.Verdict != VerdictReplay
	if r.Accepted && len(records) > 0 {
		r.Timestamps = make([]float64, len(records))
		for i, rec := range records {
			r.Timestamps[i] = timestamp.Reconstruct(fv.ArrivalTime, rec)
		}
	}
}

// firstErr returns the first non-nil error of errs (nil if none).
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
