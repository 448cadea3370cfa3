package iqfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// FuzzRead fuzzes the decoder that fbscan scan reads captures through with
// arbitrary bytes. A length that is not a multiple of 8 is an error:
// ErrOddFloatCount for a lone trailing I sample, io.ErrUnexpectedEOF for a
// partial float. Any other input decodes to len/8 samples whose Write
// reproduces the input bytes, except that a NaN may come back with other
// payload bits: float32 → float64 quiets a signalling NaN. The seed corpus
// in testdata/fuzz/FuzzRead holds no bytes, one sample, a lone I sample, a
// partial float, a sample and a partial one, signalling and quiet NaNs,
// ±Inf, −0 with subnormals, and the first samples of an upchirp.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		iq, err := Read(bytes.NewReader(data))
		if rem := len(data) % 8; rem != 0 {
			want := io.ErrUnexpectedEOF
			if rem == 4 {
				want = ErrOddFloatCount
			}
			if !errors.Is(err, want) {
				t.Fatalf("Read of %d bytes: err = %v, want %v", len(data), err, want)
			}
			return
		}
		if err != nil {
			t.Fatalf("Read of %d bytes: %v", len(data), err)
		}
		if len(iq) != len(data)/8 {
			t.Fatalf("Read of %d bytes: %d samples, want %d", len(data), len(iq), len(data)/8)
		}
		var buf bytes.Buffer
		if err := Write(&buf, iq); err != nil {
			t.Fatal(err)
		}
		out := buf.Bytes()
		if len(out) != len(data) {
			t.Fatalf("Write of %d samples: %d bytes, want %d", len(iq), len(out), len(data))
		}
		for i := 0; i < len(data); i += 4 {
			in := binary.LittleEndian.Uint32(data[i:])
			got := binary.LittleEndian.Uint32(out[i:])
			if math.IsNaN(float64(math.Float32frombits(in))) {
				if !math.IsNaN(float64(math.Float32frombits(got))) {
					t.Fatalf("float %d: NaN %#08x written back as %#08x", i/4, in, got)
				}
				continue
			}
			if got != in {
				t.Fatalf("float %d: %#08x written back as %#08x", i/4, in, got)
			}
		}
	})
}
