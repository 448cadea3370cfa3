package lorawan

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzParseFrame fuzzes the frame decoder with arbitrary bytes: it must
// return one of its typed errors, or a frame whose Marshal reproduces the
// input exactly, so the MIC that Verify recomputes covers the bytes
// received. The seed corpus in testdata/fuzz/FuzzParseFrame holds a signed
// uplink, 15 bytes of FOpts, a frame without FPort, an FPort with an empty
// payload, 11 bytes, a non-zero major version and set RFU bits.
func FuzzParseFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ParseFrame(data)
		if err != nil {
			if !errors.Is(err, ErrFrameTooShort) && !errors.Is(err, ErrBadMajor) && !errors.Is(err, ErrReservedBits) {
				t.Fatalf("ParseFrame(%x): untyped error %v", data, err)
			}
			return
		}
		out, err := fr.Marshal()
		if err != nil {
			t.Fatalf("Marshal of parsed %x: %v", data, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("ParseFrame then Marshal: %x, want the input %x", out, data)
		}
	})
}
