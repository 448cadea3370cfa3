package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTable1MatchesPaperShape(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if rel := math.Abs(r.W2-r.PaperW2) / r.PaperW2; rel > 0.25 {
			t.Errorf("SF%d/%dB: w2 %.1f vs paper %.0f (%.0f%%)", r.SF, r.PayloadLen, r.W2, r.PaperW2, rel*100)
		}
		if r.W1 >= r.W2 || r.W2 >= r.W3 {
			t.Errorf("SF%d/%dB: window ordering broken", r.SF, r.PayloadLen)
		}
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "Table 1") {
		t.Error("printer missing header")
	}
}

func TestTable2AICBeatsEnvelope(t *testing.T) {
	res := Table2()
	if len(res.AICI) != 10 || len(res.EnvI) != 10 {
		t.Fatalf("trials: %d/%d", len(res.AICI), len(res.EnvI))
	}
	var aicMax, envMax float64
	for i := range res.AICI {
		aicMax = math.Max(aicMax, math.Max(res.AICI[i], res.AICQ[i]))
		envMax = math.Max(envMax, math.Max(res.EnvI[i], res.EnvQ[i]))
	}
	if aicMax > 2.5 {
		t.Errorf("AIC max error %.2f µs, paper reports < 2", aicMax)
	}
	if envMax > 15 {
		t.Errorf("envelope max error %.2f µs, paper reports ≤ 9.8", envMax)
	}
	var buf bytes.Buffer
	PrintTable2(&buf, res)
	if !strings.Contains(buf.String(), "AIC I") {
		t.Error("printer missing rows")
	}
}

func TestFig6SweepIsLinear(t *testing.T) {
	r := Fig6()
	if r.Frames < 15 {
		t.Errorf("frames = %d, want ~20", r.Frames)
	}
	// Sweep rate ≈ W²/2^SF = 122.07 MHz/s.
	want := 125e3 * 125e3 / 128
	if math.Abs(r.SweepFit.Slope-want) > 0.05*want {
		t.Errorf("sweep = %.2f MHz/s, want %.2f", r.SweepFit.Slope/1e6, want/1e6)
	}
	// The 128-point window quantizes frequency to 18.75 kHz bins (the
	// coarse resolution the paper's §6.1.2 complains about), so the fit is
	// a staircase: demand linear trend, not exactness.
	if r.SweepFit.R2 < 0.95 {
		t.Errorf("sweep linearity R² = %.3f", r.SweepFit.R2)
	}
	var buf bytes.Buffer
	PrintFig6(&buf, r)
	if !strings.Contains(buf.String(), "sweep rate") {
		t.Error("printer output incomplete")
	}
}

func TestFig7PhaseChangesShape(t *testing.T) {
	r := Fig7()
	// θ=0 vs θ=π: antiphase cosine → strong negative correlation.
	if r.Correlation > -0.9 {
		t.Errorf("correlation = %.3f, want ≈ −1", r.Correlation)
	}
	if r.MaxDiff < 1 {
		t.Errorf("max diff = %.2f, want large", r.MaxDiff)
	}
}

func TestFig8BiasShiftsDip(t *testing.T) {
	r := Fig8()
	// δ = −22.8 kHz moves the dip later: (W/2−δ)/k vs (W/2)/k.
	if r.DipBiasedMs <= r.DipUnbiasedMs {
		t.Errorf("dip did not shift: %.3f vs %.3f ms", r.DipBiasedMs, r.DipUnbiasedMs)
	}
	k := 125e3 * 125e3 / 128
	wantShift := -r.BiasHz / k * 1e3
	gotShift := r.DipBiasedMs - r.DipUnbiasedMs
	if math.Abs(gotShift-wantShift) > 0.08 {
		t.Errorf("dip shift = %.3f ms, want %.3f", gotShift, wantShift)
	}
}

func TestFig9DetectorsAgree(t *testing.T) {
	r, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.AICPickMs-r.TrueOnsetMs) > 0.005 {
		t.Errorf("AIC pick %.4f ms vs true %.4f", r.AICPickMs, r.TrueOnsetMs)
	}
	if math.Abs(r.EnvelopePeakMs-r.TrueOnsetMs) > 0.02 {
		t.Errorf("envelope pick %.4f ms vs true %.4f", r.EnvelopePeakMs, r.TrueOnsetMs)
	}
}

// TestPrintFig9LabelsEachValue prints a result whose four fields are all
// distinct and checks that each number follows its own label.
func TestPrintFig9LabelsEachValue(t *testing.T) {
	var buf bytes.Buffer
	PrintFig9(&buf, Fig9Result{TrueOnsetMs: 1.25, EnvelopePeakMs: 2.5, AICPickMs: 3.75, MaxEnvRatio: 8.5})
	out := buf.String()
	for _, want := range []string{
		"true onset 1.2500 ms",
		"max-ratio pick 2.5000 ms",
		"(ratio 8.5)",
		"AIC pick 3.7500 ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("PrintFig9 output lacks %q:\n%s", want, out)
		}
	}
}

func TestFig10ErrorGrowsAsSNRDrops(t *testing.T) {
	pts := Fig10(4)
	if len(pts) != 13 {
		t.Fatalf("points = %d", len(pts))
	}
	// High-SNR errors are microseconds; the curve grows toward low SNR.
	last := pts[len(pts)-1] // 40 dB
	if last.MeanErrorUs > 3 {
		t.Errorf("error at 40 dB = %.2f µs", last.MeanErrorUs)
	}
	first := pts[0] // -20 dB
	if first.MeanErrorUs < last.MeanErrorUs {
		t.Error("error should grow as SNR drops")
	}
	// Within the building SNR range (−1..13 dB) the paper expects average
	// errors within 20 µs (§6.2).
	for _, p := range pts {
		if p.SNRdB >= 0 && p.SNRdB <= 15 && p.MeanErrorUs > 20 {
			t.Errorf("error at %.0f dB = %.2f µs, want < 20", p.SNRdB, p.MeanErrorUs)
		}
	}
}

func TestFig11OppositeShifts(t *testing.T) {
	r := Fig11()
	const mid = 0.512
	if !(r.DipMinusMs > mid && r.DipPlusMs < mid) {
		t.Errorf("dips %.3f / %.3f ms do not straddle the midpoint", r.DipMinusMs, r.DipPlusMs)
	}
}

func TestFig12RecoversPaperExample(t *testing.T) {
	r, err := Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.EstimatedDeltaHz-r.AppliedDeltaHz) > 50 {
		t.Errorf("estimated %.0f Hz, applied %.0f", r.EstimatedDeltaHz, r.AppliedDeltaHz)
	}
	if r.ResidualR2 < 0.999 {
		t.Errorf("R² = %f", r.ResidualR2)
	}
	if r.RectifiedSpanRad >= 0 {
		t.Error("rectified span should be negative for δ < 0")
	}
}

func TestFig13ReplayShiftDetectable(t *testing.T) {
	rows, err := Fig13(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("nodes = %d", len(rows))
	}
	for _, r := range rows {
		// Original biases in the paper's −25..−17 kHz band.
		if r.Original.Mean > -17e3 || r.Original.Mean < -26e3 {
			t.Errorf("%s: original FB %.1f kHz outside paper band", r.NodeID, r.Original.Mean/1e3)
		}
		// Replay shift near the replayer's −643 Hz, far above the 120 Hz
		// resolution.
		if math.Abs(r.ExtraHz+643) > 150 {
			t.Errorf("%s: extra FB %.0f Hz, want ≈ −643", r.NodeID, r.ExtraHz)
		}
	}
}

func TestFig14WithinPaperResolution(t *testing.T) {
	if testing.Short() {
		t.Skip("DE least squares sweep is CPU-heavy")
	}
	pts, err := Fig14(1)
	if err != nil {
		t.Fatal(err)
	}
	// Within-paper-resolution at moderate SNR; at −25/−20 dB the
	// single-chirp Cramér-Rao bound (~110-190 Hz) is the honest floor
	// (see EXPERIMENTS.md).
	for _, p := range pts {
		limit := 120.0
		if p.SNRdB <= -20 {
			limit = 350
		}
		if p.GaussianErrorHz > limit {
			t.Errorf("gaussian error at %.0f dB = %.0f Hz, want ≤ %.0f", p.SNRdB, p.GaussianErrorHz, limit)
		}
		if p.RealErrorHz > limit+80 {
			t.Errorf("real-noise error at %.0f dB = %.0f Hz", p.SNRdB, p.RealErrorHz)
		}
	}
}

func TestFig15SurveyMatchesPaper(t *testing.T) {
	r, err := Fig15()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 63 { // 64 survey positions minus the TX cell
		t.Errorf("cells = %d", len(r.Cells))
	}
	if r.MinSNR < -6 || r.MaxSNR > 20 {
		t.Errorf("SNR range [%.1f, %.1f] far from paper's [−1, 13]", r.MinSNR, r.MaxSNR)
	}
	if r.MaxTiming > 10 {
		t.Errorf("max timing error %.2f µs, paper reports sub-10", r.MaxTiming)
	}
	var buf bytes.Buffer
	PrintFig15(&buf, r)
	if !strings.Contains(buf.String(), "SNR map") {
		t.Error("printer output incomplete")
	}
}

func TestFig16ReplayAddsTwoKHz(t *testing.T) {
	rows, err := Fig16(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		extra := r.Replayed.Mean - r.Gateway.Mean
		if math.Abs(extra-2e3) > 300 {
			t.Errorf("power %.1f: extra FB %.0f Hz, want ≈ 2000", r.TxPowerdBm, extra)
		}
		// Eavesdropper and gateway rows differ by their receiver biases.
		if math.Abs((r.Gateway.Mean-r.Eavesdropper.Mean)-(-0.8e3-1.2e3)) > 300 {
			t.Errorf("power %.1f: receiver-bias separation off", r.TxPowerdBm)
		}
	}
	// TX power has little effect on the estimates (paper's observation).
	first, last := rows[0].Gateway.Mean, rows[len(rows)-1].Gateway.Mean
	if math.Abs(first-last) > 300 {
		t.Errorf("gateway FB varies %.0f Hz across power sweep", math.Abs(first-last))
	}
}

func TestSec811FullChain(t *testing.T) {
	r, err := Sec811()
	if err != nil {
		t.Fatal(err)
	}
	if r.MinWorkingSF != 8 {
		t.Errorf("min workable SF = %d, paper found 8", r.MinWorkingSF)
	}
	if !r.Stealthy {
		t.Errorf("jam outcome = %v", r.JamOutcome)
	}
	if !r.RecordingUsable || !r.Inconspicuous {
		t.Errorf("recording usable=%v inconspicuous=%v", r.RecordingUsable, r.Inconspicuous)
	}
	if !r.Detected {
		t.Errorf("SoftLoRa failed to detect: replay FB %.0f vs device %.0f", r.ReplayFBHz, r.DeviceFBHz)
	}
}

func TestSec82MicrosecondAccuracy(t *testing.T) {
	r, err := Sec82()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.PropagationUs-3.57) > 0.02 {
		t.Errorf("propagation = %.2f µs", r.PropagationUs)
	}
	for i, e := range r.TrialErrorsUs {
		if e > 10 {
			t.Errorf("trial %d error %.2f µs, want microseconds-level", i, e)
		}
	}
}

func TestSec32PaperNumbers(t *testing.T) {
	r := Sec32()
	if math.Abs(r.SyncSessionsPerHour-14.4) > 0.1 {
		t.Errorf("sessions/hour = %.1f", r.SyncSessionsPerHour)
	}
	if math.Abs(r.MaxBufferMinutes-4.17) > 0.1 {
		t.Errorf("buffer = %.2f min", r.MaxBufferMinutes)
	}
	if r.ElapsedBits != 18 {
		t.Errorf("bits = %d", r.ElapsedBits)
	}
	if r.FramesPerHourSF12 < 20 || r.FramesPerHourSF12 > 28 {
		t.Errorf("frames/hour = %d", r.FramesPerHourSF12)
	}
	if math.Abs(r.TimestampFraction-0.267) > 0.01 {
		t.Errorf("fraction = %.3f", r.TimestampFraction)
	}
}

func TestAblationOnsetRanking(t *testing.T) {
	rows, err := AblationOnset(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SNRdB >= 10 && r.AICUs > r.SpectrogramUs {
			t.Errorf("at %.0f dB AIC (%.2f µs) should beat spectrogram (%.2f µs)",
				r.SNRdB, r.AICUs, r.SpectrogramUs)
		}
	}
}

func TestRTTCost(t *testing.T) {
	r := RTTCost()
	if r.WithRTTFramesPerHour*2 > r.UplinkOnlyFramesPerHour+1 {
		t.Error("RTT must halve the budget")
	}
	if r.SoftLoRaOverheadFrames != 0 {
		t.Error("SoftLoRa adds no communication overhead")
	}
}

func TestAblationUpDownDecoupling(t *testing.T) {
	rows, err := AblationUpDown(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.UpDownErrHz > 100 {
			t.Errorf("misalign %.1f µs: up/down error %.0f Hz, want < 100", r.MisalignUs, r.UpDownErrHz)
		}
		if r.MisalignUs >= 5 {
			// Single-chirp error grows ≈ 122 Hz/µs.
			want := 122 * r.MisalignUs
			if r.SingleChirpErrHz < want/2 {
				t.Errorf("misalign %.1f µs: single-chirp error %.0f Hz, expected ≈ %.0f", r.MisalignUs, r.SingleChirpErrHz, want)
			}
		}
		if r.TimingRecoveredUs > 1.5 {
			t.Errorf("misalign %.1f µs: timing residual %.2f µs", r.MisalignUs, r.TimingRecoveredUs)
		}
	}
}

func TestAblationMultiGatewayFusionAtLeastBestSingle(t *testing.T) {
	rows, err := AblationMultiGateway(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	fused := rows[len(rows)-1]
	if fused.Receiver != "fused" {
		t.Fatalf("last row = %s, want fused", fused.Receiver)
	}
	best := 0.0
	bestErr := 1e18
	for _, r := range rows[:len(rows)-1] {
		if acc := r.Accuracy(); acc > best {
			best = acc
		}
		if r.MeanAbsErrHz < bestErr {
			bestErr = r.MeanAbsErrHz
		}
	}
	// The acceptance bar: fused replay-detection accuracy must be at
	// least the best single gateway's (inverse-variance weighting is
	// dominated by the best link; the consistency gate rejects receivers
	// that lost the tone).
	if fused.Accuracy() < best {
		t.Errorf("fused accuracy %.2f below best single gateway %.2f", fused.Accuracy(), best)
	}
	// And the fused estimate should not be worse than the best receiver's
	// (strictly better in expectation; allow 20%% slack for the finite run).
	if fused.MeanAbsErrHz > bestErr*1.2 {
		t.Errorf("fused mean |err| %.1f Hz vs best single %.1f Hz", fused.MeanAbsErrHz, bestErr)
	}
	// The far gateway must actually be degraded, or the ablation shows
	// nothing.
	worst := 1.0
	for _, r := range rows[:len(rows)-1] {
		if acc := r.Accuracy(); acc < worst {
			worst = acc
		}
	}
	if worst >= 1 {
		t.Log("note: every single gateway was perfect this run; separation came from mean error only")
	}
}
