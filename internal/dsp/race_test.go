package dsp_test

import (
	"math/cmplx"
	"sync"
	"testing"

	"softlora/internal/dsp"
)

// These tests exist for `make race`: they drive the package's shared and
// per-goroutine scratch through concurrent use so the race detector can
// vet the ownership contracts that plan caching and "one instance per
// goroutine" scratch rely on. They also assert bit-identical results, so
// a lost cache race would surface as a wrong transform, not only as a
// detector report.

// TestConcurrentPlanForSharedCache hammers the global plan cache from many
// goroutines asking for overlapping sizes while transforming goroutine-
// private buffers through the shared plans.
func TestConcurrentPlanForSharedCache(t *testing.T) {
	t.Parallel()
	sizes := []int{64, 256, 1024, 4096}
	refs := make(map[int][]complex128)
	for _, n := range sizes {
		buf := rampTrace(n)
		dsp.PlanFor(n).TransformInPlace(buf)
		refs[n] = buf
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				n := sizes[(w+iter)%len(sizes)]
				buf := rampTrace(n)
				dsp.PlanFor(n).TransformInPlace(buf)
				for i := range buf {
					if buf[i] != refs[n][i] {
						errs <- "concurrent transform diverged from serial reference"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestConcurrentTransformDistinctBuffers shares one plan across goroutines
// that each transform private buffers out of place, full-length and
// zero-padded. Plans are read-only after construction; this is the
// worker-pool idiom the batch pipeline uses.
func TestConcurrentTransformDistinctBuffers(t *testing.T) {
	t.Parallel()
	const n = 256
	p := dsp.PlanFor(n)
	src := rampTrace(n)
	ref := make([][]complex128, 2)
	for i, l := range []int{n, n/2 + 7} {
		ref[i] = make([]complex128, n)
		p.Transform(ref[i], src[:l])
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := rampTrace(n)
			dst := make([]complex128, n)
			for iter := 0; iter < 20; iter++ {
				i := iter % 2
				p.Transform(dst, src[:[]int{n, n/2 + 7}[i]])
				for k := range dst {
					if dst[k] != ref[i][k] {
						t.Error("shared-plan transform diverged")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentGaussianSourcesIndependent runs one GaussianSource per
// goroutine — the documented ownership contract — and checks each stream
// replays its serial twin exactly.
func TestConcurrentGaussianSourcesIndependent(t *testing.T) {
	t.Parallel()
	const draws = 4096
	want := make([][]float64, 4)
	for w := range want {
		var g dsp.GaussianSource
		g.Seed(int64(w + 1))
		want[w] = make([]float64, draws)
		for i := range want[w] {
			want[w][i] = g.Norm()
		}
	}

	var wg sync.WaitGroup
	for w := range want {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var g dsp.GaussianSource
			g.Seed(int64(w + 1))
			for i := 0; i < draws; i++ {
				if got := g.Norm(); got != want[w][i] {
					t.Errorf("goroutine %d draw %d: got %v want %v", w, i, got, want[w][i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// rampTrace builds a deterministic complex test vector.
func rampTrace(n int) []complex128 {
	buf := make([]complex128, n)
	for i := range buf {
		buf[i] = cmplx.Rect(1+float64(i%7)/7, float64(i)*0.37)
	}
	return buf
}
