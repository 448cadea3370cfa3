package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"softlora"
	"softlora/internal/iqfile"
)

var (
	onsetLine = regexp.MustCompile(`preamble onset: sample (\d+) `)
	biasLine  = regexp.MustCompile(`frequency bias \[([a-z-]+)\]: \S+ Hz = (\S+) ppm`)
)

// TestGenScanRoundTrip scans an fbscan gen capture (onset at 2 ms = sample
// 4800, bias −24 ppm, SNR 15 dB) through the gateway's PHY stage with every
// single-chirp estimator, and with the -fb values it cannot serve.
func TestGenScanRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "capture.iq")
	if err := runGen(io.Discard, []string{"-out", path}); err != nil {
		t.Fatal(err)
	}
	for _, fb := range []softlora.FBMethod{softlora.FBLinearRegression, softlora.FBLeastSquares, softlora.FBDechirpFFT} {
		var out bytes.Buffer
		if err := runScan(&out, []string{"-fb", string(fb), path}); err != nil {
			t.Fatalf("%s: %v", fb, err)
		}
		m := onsetLine.FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("%s: no onset line in\n%s", fb, out.String())
		}
		if onset, _ := strconv.Atoi(m[1]); onset < 4797 || onset > 4803 {
			t.Errorf("%s: onset sample %d, want 4800±3", fb, onset)
		}
		m = biasLine.FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("%s: no bias line in\n%s", fb, out.String())
		}
		if m[1] != string(fb) {
			t.Errorf("bias line names %q, want %q", m[1], fb)
		}
		if ppm, err := strconv.ParseFloat(m[2], 64); err != nil || math.Abs(ppm+24) > 0.25 {
			t.Errorf("%s: bias %s ppm, want −24±0.25", fb, m[2])
		}
	}
	// Up/down needs the SFD, which a two-chirp capture lacks, and an
	// unknown name fails NewGateway.
	if err := runScan(io.Discard, []string{"-fb", string(softlora.FBUpDown), path}); err == nil {
		t.Error("-fb updown on a two-chirp capture: no error")
	}
	if err := runScan(io.Discard, []string{"-fb", "fft-exact", path}); !errors.Is(err, softlora.ErrBadMethod) {
		t.Errorf("-fb fft-exact: %v, want ErrBadMethod", err)
	}
}

// TestScanNonFiniteSample: one ±Inf sample in the lead-in of an fbscan gen
// capture is an error for every FB method. It used to pull the AIC onset
// to sample 936 and yield a finite, wrong FB with no error.
func TestScanNonFiniteSample(t *testing.T) {
	path := filepath.Join(t.TempDir(), "capture.iq")
	if err := runGen(io.Discard, []string{"-out", path}); err != nil {
		t.Fatal(err)
	}
	iq, meta, err := iqfile.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	iq[1000] = complex(math.Inf(1), math.Inf(-1))
	if err := iqfile.Save(path, iq, meta); err != nil {
		t.Fatal(err)
	}
	for _, fb := range []softlora.FBMethod{softlora.FBLinearRegression, softlora.FBLeastSquares,
		softlora.FBDechirpFFT, softlora.FBUpDown} {
		if err := runScan(io.Discard, []string{"-fb", string(fb), path}); !errors.Is(err, softlora.ErrNonFinite) {
			t.Errorf("%s: %v, want ErrNonFinite", fb, err)
		}
	}
}

// TestScanBadSidecarRate: a sidecar rate the gateway cannot use is an
// error, not a slice-bounds panic from an overflowed chirp length.
func TestScanBadSidecarRate(t *testing.T) {
	for _, rate := range []float64{-1, 1e300} {
		path := filepath.Join(t.TempDir(), "capture.iq")
		if err := iqfile.Save(path, make([]complex128, 9778), iqfile.Metadata{SampleRate: rate}); err != nil {
			t.Fatal(err)
		}
		if err := runScan(io.Discard, []string{path}); !errors.Is(err, softlora.ErrBadSampleRate) {
			t.Errorf("sidecar rate %g: %v, want ErrBadSampleRate", rate, err)
		}
	}
}
