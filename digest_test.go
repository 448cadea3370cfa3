//go:build amd64 && !amd64.v3

package softlora

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// TestGatewayOutputDigests pins the gateway's outputs on a fixed batch to
// committed SHA-256 digests, so a change meant to keep them bit-identical
// can show it with go test: per uplink the FB and arrival-time bits, the
// onset sample and the verdict, then the saved bias database, for five
// shipped pipelines: AIC onset + dechirp-FFT FB (the benchmark's default
// workload), dechirp onset + up/down FB (the low-SNR one), AIC + linear
// regression (the zero Config), envelope + linear regression, and dechirp
// onset + least squares (examples/building). Each configuration has two
// digests: one for the batch through ProcessBatch, one for the same
// captures, on a fresh fixture, through ProcessUplink one at a time (the
// single-capture path, which draws from Config.Rand). A change that alters
// outputs on purpose updates the digest this test prints and says so in
// CHANGES.md.
//
// The build constraint keeps it to amd64 below v3: at GOAMD64=v3 the
// compiler fuses multiply-adds into FMA instructions, which round once
// instead of twice and so change output bits.
func TestGatewayOutputDigests(t *testing.T) {
	for _, c := range []struct {
		onset             OnsetMethod
		fb                FBMethod
		batch, singleCall string
	}{
		{OnsetAIC, FBDechirpFFT,
			"f88381508a26a0b3d21233c7d5869478c3a8113042c08c131478d85fc6a2d229",
			"308d9b4b989aa06fd046fdbe7544e73d7332c585a7bda0a86fa38b53a9f810b9"},
		{OnsetDechirp, FBUpDown,
			"0f64c3ecd300a892b1f079445fb58b1f619aecbe07d10252ea371989b55aa394",
			"2c8bd15d08a15a6477b1dd32754715d262e910033e1e27097e077f116333fec3"},
		{OnsetAIC, FBLinearRegression,
			"f05ede6d13c8bce0a32492208f2de092d0a6798399aba616d320ee5478885d99",
			"e45886d4f89b1f00bab7d4309ccbc6f5f6184a3588e02523b32a7eb020727dbc"},
		{OnsetEnvelope, FBLinearRegression,
			"51f4315ec081d70258a179d3a7926f2199338f95bb50bf1c5a38a92ff024b9be",
			"2c2b01cd1375408bf0a73c4f3751cf5600828df8de77f45abd851ee858c9baa3"},
		{OnsetDechirp, FBLeastSquares,
			"e97e331beb20ac5abe7c210c800832605e54e10bf9bf6ec885ac4d6deab97e6d",
			"9d7df2f130d9c7f4c65a09f6f1f40f3e797817119aac5219576355e84ee82d9c"},
	} {
		cfg := Config{Onset: c.onset, FB: c.fb, Workers: 1}
		gw, jobs := batchFixtureWith(t, cfg, 16)
		var reports []*UplinkReport
		for i, r := range gw.ProcessBatch(context.Background(), jobs) {
			if r.Err != nil {
				t.Fatalf("%s+%s uplink %d: %v", c.onset, c.fb, i, r.Err)
			}
			reports = append(reports, r.Report)
		}
		if got := outputDigest(t, gw, reports); got != c.batch {
			t.Errorf("%s+%s: ProcessBatch output digest %s, want %s", c.onset, c.fb, got, c.batch)
		}

		gw, jobs = batchFixtureWith(t, cfg, 16)
		reports = reports[:0]
		for i, j := range jobs {
			r, err := gw.ProcessUplink(j.Capture, j.ClaimedID, j.Records)
			if err != nil {
				t.Fatalf("%s+%s uplink %d: %v", c.onset, c.fb, i, err)
			}
			reports = append(reports, r)
		}
		if got := outputDigest(t, gw, reports); got != c.singleCall {
			t.Errorf("%s+%s: ProcessUplink output digest %s, want %s", c.onset, c.fb, got, c.singleCall)
		}
	}
}

// outputDigest hashes each report's FB and arrival-time bits, onset sample
// and verdict in order, then the gateway's saved bias database.
func outputDigest(t *testing.T, gw *Gateway, reports []*UplinkReport) string {
	t.Helper()
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range reports {
		word(math.Float64bits(r.FrequencyBiasHz))
		word(math.Float64bits(r.ArrivalTime))
		word(uint64(r.OnsetSample))
		word(uint64(len(r.Verdict)))
		h.Write([]byte(r.Verdict))
	}
	if err := gw.SaveBiasDatabase(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
