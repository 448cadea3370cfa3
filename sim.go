package softlora

import (
	"context"
	"fmt"
	"math/rand"

	"softlora/internal/clock"
	"softlora/internal/lora"
	"softlora/internal/radio"
	"softlora/internal/timestamp"
)

// Simulation wires a Gateway to a simulated radio environment so complete
// deployments can be exercised without hardware: devices with drifting
// clocks and biased oscillators, a noisy channel, and the gateway's SDR
// capture path.
type Simulation struct {
	// Gateway under test.
	Gateway *Gateway
	// NoiseFloordBm of the channel at the gateway.
	NoiseFloordBm float64
	// LeadTime is the noise lead-in captured before each frame onset
	// (needed by the onset detectors). Default 2 ms.
	LeadTime float64
	// Rand drives channel noise and device impairments; required.
	Rand *rand.Rand
}

// SimDevice is one simulated end device.
type SimDevice struct {
	// ID is the device identity claimed in frames.
	ID string
	// Transmitter models the radio front end (oscillator bias, power).
	Transmitter *lora.Transmitter
	// Data implements the sync-free elapsed-time buffering.
	Data *timestamp.Device
	// PathLossdB and DistanceMeters describe the link to the gateway.
	PathLossdB     float64
	DistanceMeters float64
}

// NewSimDevice builds a device with the given oscillator bias (ppm), clock
// drift (ppm), and link budget.
func NewSimDevice(id string, oscBiasPPM, clockDriftPPM, txPowerdBm, pathLossdB, distanceMeters float64) *SimDevice {
	return &SimDevice{
		ID: id,
		Transmitter: &lora.Transmitter{
			ID:       id,
			BiasPPM:  oscBiasPPM,
			PowerdBm: txPowerdBm,
		},
		Data: &timestamp.Device{
			Clock: &clock.Oscillator{DriftPPM: clockDriftPPM},
		},
		PathLossdB:     pathLossdB,
		DistanceMeters: distanceMeters,
	}
}

// Record buffers a sensor datum on the device at the given global time.
func (d *SimDevice) Record(globalNow float64, value []byte) {
	d.Data.Take(globalNow, value)
}

// Uplink transmits the device's buffered records at global time t0 and runs
// the gateway pipeline on the resulting capture. It returns the gateway's
// report and the flushed records.
func (s *Simulation) Uplink(d *SimDevice, t0 float64) (*UplinkReport, []timestamp.FrameRecord, error) {
	cap, records, err := s.RenderUplink(d, t0)
	if err != nil {
		return nil, nil, err
	}
	report, err := s.Gateway.ProcessUplink(cap, d.ID, records)
	if err != nil {
		return nil, nil, err
	}
	return report, records, nil
}

// flushEmission flushes the device's buffered records into a frame emission
// at transmit time t0. Impairments are drawn once from rng — the same
// emission can then be heard by any number of receivers by overriding its
// per-link PathLossdB/Distance.
func flushEmission(d *SimDevice, params lora.Params, rng *rand.Rand, t0 float64) (radio.Emission, []timestamp.FrameRecord, error) {
	records, err := d.Data.Flush(t0)
	if err != nil {
		return radio.Emission{}, nil, fmt.Errorf("softlora: flushing records: %w", err)
	}
	payload := make([]byte, 0, 4*len(records))
	for _, r := range records {
		payload = append(payload,
			byte(r.Elapsed), byte(r.Elapsed>>8), byte(r.Elapsed>>16))
		if len(r.Value) > 0 {
			payload = append(payload, r.Value[0])
		} else {
			payload = append(payload, 0)
		}
	}
	if len(payload) == 0 {
		payload = []byte{0}
	}
	em := radio.Emission{
		Frame:       lora.Frame{Params: params, Payload: payload},
		Impairments: d.Transmitter.NextImpairments(params, rng),
		StartTime:   t0,
		TxPowerdBm:  d.Transmitter.PowerdBm,
		PathLossdB:  d.PathLossdB,
		Distance:    d.DistanceMeters,
	}
	return em, records, nil
}

// RenderUplink flushes the device's records, builds the frame emission and
// renders the channel capture the gateway will process.
func (s *Simulation) RenderUplink(d *SimDevice, t0 float64) (*radio.Capture, []timestamp.FrameRecord, error) {
	if s.Rand == nil {
		return nil, nil, ErrNilRand
	}
	em, records, err := flushEmission(d, s.Gateway.params, s.Rand, t0)
	if err != nil {
		return nil, nil, err
	}
	cap, err := s.CaptureEmission(em)
	if err != nil {
		return nil, nil, err
	}
	return cap, records, nil
}

// SimUplink queues one device transmission for UplinkBatch.
type SimUplink struct {
	Device *SimDevice
	// Time is the device's transmit time t0 on the global timeline.
	Time float64
}

// SimBatchResult is the outcome of one batched simulated uplink.
type SimBatchResult struct {
	Report  *UplinkReport
	Records []timestamp.FrameRecord
	Err     error
}

// UplinkBatch transmits the queued uplinks and runs the gateway's
// concurrent batch pipeline on the captures. Channel rendering stays
// serial (the shared noise stream keeps the simulation deterministic);
// Gateway.ProcessBatch then fans the captures across its worker pool.
// Results are positionally aligned with ups.
func (s *Simulation) UplinkBatch(ctx context.Context, ups []SimUplink) ([]SimBatchResult, error) {
	if s.Rand == nil {
		return nil, ErrNilRand
	}
	results := make([]SimBatchResult, len(ups))
	jobs := make([]Uplink, len(ups))
	for i, u := range ups {
		cap, records, err := s.RenderUplink(u.Device, u.Time)
		if err != nil {
			results[i].Err = err
			continue
		}
		jobs[i] = Uplink{Capture: cap, ClaimedID: u.Device.ID, Records: records}
		results[i].Records = records
	}
	batch := s.Gateway.ProcessBatch(ctx, jobs)
	for i := range batch {
		if results[i].Err != nil {
			continue
		}
		results[i].Report = batch[i].Report
		results[i].Err = batch[i].Err
	}
	return results, nil
}

// CaptureEmission renders the channel around one emission: LeadTime of
// noise, then as many chirp times as the gateway's estimator needs (four
// for the paper's two-chirp analysis; through the SFD for the up/down
// joint estimator).
func (s *Simulation) CaptureEmission(em radio.Emission) (*radio.Capture, error) {
	if s.Rand == nil {
		return nil, ErrNilRand
	}
	lead := s.LeadTime
	if lead <= 0 {
		lead = 2e-3
	}
	ch := &radio.Channel{
		SampleRate:    s.Gateway.sampleRate,
		NoiseFloordBm: s.NoiseFloordBm,
		Rand:          s.Rand,
	}
	arrival := em.StartTime + radio.PropagationDelay(em.Distance)
	dur := lead + float64(s.Gateway.CaptureChirps())*s.Gateway.params.ChirpTime()
	cap, err := ch.Receive([]radio.Emission{em}, arrival-lead, dur)
	if err != nil {
		return nil, fmt.Errorf("softlora: channel capture: %w", err)
	}
	return cap, nil
}
