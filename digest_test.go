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
// onset sample and the verdict, then the saved bias database, for the
// default pipeline (AIC onset + dechirp-FFT FB) and the low-SNR one
// (dechirp onset + up/down FB). A change that alters outputs on purpose
// updates the digest this test prints and says so in CHANGES.md.
//
// The build constraint keeps it to amd64 below v3: at GOAMD64=v3 the
// compiler fuses multiply-adds into FMA instructions, which round once
// instead of twice and so change output bits.
func TestGatewayOutputDigests(t *testing.T) {
	for _, c := range []struct {
		onset OnsetMethod
		fb    FBMethod
		want  string
	}{
		{OnsetAIC, FBDechirpFFT, "f88381508a26a0b3d21233c7d5869478c3a8113042c08c131478d85fc6a2d229"},
		{OnsetDechirp, FBUpDown, "0f64c3ecd300a892b1f079445fb58b1f619aecbe07d10252ea371989b55aa394"},
	} {
		gw, jobs := batchFixtureWith(t, Config{Onset: c.onset, FB: c.fb, Workers: 1}, 16)
		h := sha256.New()
		word := func(v uint64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		for i, r := range gw.ProcessBatch(context.Background(), jobs) {
			if r.Err != nil {
				t.Fatalf("%s+%s uplink %d: %v", c.onset, c.fb, i, r.Err)
			}
			word(math.Float64bits(r.Report.FrequencyBiasHz))
			word(math.Float64bits(r.Report.ArrivalTime))
			word(uint64(r.Report.OnsetSample))
			word(uint64(len(r.Report.Verdict)))
			h.Write([]byte(r.Report.Verdict))
		}
		if err := gw.SaveBiasDatabase(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s+%s: output digest %s, want %s", c.onset, c.fb, got, c.want)
		}
	}
}
