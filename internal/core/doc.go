// Package core implements the SoftLoRa gateway's PHY-layer defense — the
// paper's primary contribution:
//
//   - Microsecond-accurate LoRa signal timestamping (§6): preamble onset
//     detection on the SDR's I/Q traces with an envelope detector (Hilbert
//     transform + amplitude-ratio maximization) and an Akaike Information
//     Criterion detector, both threshold-free. Ablation detectors the paper
//     dismisses (spectrogram, matched filter) are included for comparison.
//
//   - Frequency-bias estimation (§7.1): the linear-regression estimator
//     (unwrap the instantaneous phase, subtract the known quadratic chirp
//     phase, fit the residual line whose slope is 2πδ) and the
//     least-squares estimator solved with differential evolution, which
//     stays accurate below the demodulation SNR floor. A dechirp-FFT
//     estimator is provided as a fast extension. Its default path is a
//     two-tier coarse-to-fine estimate: dechirp + boxcar-decimate (full
//     despreading gain, sinc droop divided out per bin) localizes the δ
//     tone on an n/D-point FFT restricted to the ±BW/2 fingerprint band,
//     then a chirp-Z zoom grid ≥4× finer than the legacy padded FFT's
//     bins refines it, with parabolic interpolation on top and θ read
//     from one Goertzel evaluation at the final frequency. The monolithic
//     4×-zero-padded full-rate FFT survives behind the estimator's
//     Exhaustive field as the full-band accuracy reference;
//     fb_accuracy_test.go pins the fast path to the reference's error
//     envelope across SF 7–12 × SNR × δ. Both paths fold interpolated
//     frequencies into (−rate/2, +rate/2] (the Nyquist readout fix) and
//     derotate θ by the fractional-bin offset so phase stays unbiased for
//     off-grid δ. The coarse-to-fine readout is the package's one
//     dechirped-tone readout: the up/down estimator, which cancels the
//     onset error by averaging a preamble up chirp's tone with an SFD down
//     chirp's, reads both of its tones through it as well.
//
//   - Frame delay attack detection (§7.2): a per-device frequency-bias
//     database; a received frame whose estimated bias falls outside the
//     claimed source's learned range is flagged as a replay and its bias is
//     not folded back into the database. The per-record policy (CheckRecord:
//     enroll with count-weighted running statistics, then classify against
//     the adaptive band and EWMA-fold genuine estimates) is exported for
//     the database that applies it, the sharded multi-gateway store in
//     package netserver. Loaded databases are decoded and validated record
//     by record (DecodeDatabase, ValidateDatabase) — a non-finite mean or
//     deviation would otherwise make the acceptance test vacuously true
//     and silently disable detection for that device.
//
// # Detection ordering contract
//
// CheckRecord both reads and updates a record, so the verdict for frame k
// depends on which frames folded in before it. Callers that process
// frames concurrently must therefore split work into a side-effect-free PHY
// stage and an ordered commit stage that applies Check in a deterministic
// frame order — softlora.Gateway.ProcessBatch commits in uplink-index order
// and netserver.NetworkServer.CheckBatch sorts frames by UplinkIndex —
// otherwise verdicts and the learned database depend on goroutine
// scheduling.
//
//softlora:deterministic
package core
