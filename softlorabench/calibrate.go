package main

import (
	"math"
	"runtime"
	"syscall"
	"time"
)

// The host this benchmark runs on is shared: the process's CPU-time rate
// for the gateway's DSP swings by up to 1.6× over minutes as other tenants
// load the same cores, far beyond what any statistic within a 30-second
// run removes. A calibrator measures that swing with a fixed kernel that
// belongs to the benchmark, not to the program — a down-mix and radix-2
// FFT over 96 windows, compute-bound like the gateway's DSP, which slows
// with it when a neighbour shares the core — run between timed passes on
// as many threads as the gateway's workers. A gateway run rescales its CPU
// time by the kernel's slowdown against refFFTSeconds, so the gated rate
// reads in CPU-seconds of a reference core. A change to the program cannot
// move the kernel: it runs while no program code does, and each kernel
// thread counts only its own CPU time.

const (
	kernelFFT = 1024
	// kernelSamples is what each thread mixes down and transforms per unit
	// of work: 96 FFT windows, 768 KB of samples.
	kernelSamples = 96 * kernelFFT
	// refFFTSeconds is one unit's CPU time per thread on the reference
	// core: about the median over a morning of gateway runs on a 2-vCPU
	// Xeon VM (go1.24), which measured between 1.7 and 3.3 ms.
	refFFTSeconds = 2.4e-3
)

// calibrator runs the kernel on one thread per buffer. Its buffers are
// allocated up front, so the kernel never allocates.
type calibrator struct {
	in      []complex64
	twiddle []complex128
	bufs    [][]complex128
	sink    []float64 // keeps each thread's result live
}

func newCalibrator(threads int) *calibrator {
	k := &calibrator{
		in:      make([]complex64, kernelSamples),
		twiddle: make([]complex128, kernelFFT/2),
		bufs:    make([][]complex128, threads),
		sink:    make([]float64, threads),
	}
	for i := range k.in {
		k.in[i] = complex(float32(math.Sin(float64(i)*0.37)), float32(math.Cos(float64(i)*0.11)))
	}
	for i := range k.twiddle {
		s, c := math.Sincos(-2 * math.Pi * float64(i) / kernelFFT)
		k.twiddle[i] = complex(c, s)
	}
	for t := range k.bufs {
		k.bufs[t] = make([]complex128, kernelFFT)
	}
	return k
}

// threadCPU returns the calling thread's CPU time (user + system).
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// slowdown runs units of kernel work on every thread at once and returns
// the per-unit thread CPU time over refFFTSeconds: 1 on the reference core,
// 1.3 on a core the host has made 30% slower.
func (k *calibrator) slowdown(units int) float64 {
	cpu := make(chan time.Duration, len(k.bufs))
	for t := range k.bufs {
		go func(t int) {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c0 := threadCPU()
			for u := 0; u < units; u++ {
				k.sink[t] += fftUnit(k.in, k.twiddle, k.bufs[t])
			}
			cpu <- threadCPU() - c0
		}(t)
	}
	var total time.Duration
	for range k.bufs {
		total += <-cpu
	}
	return total.Seconds() / float64(units*len(k.bufs)) / refFFTSeconds
}

// fftUnit mixes in down window by window into buf, transforms each window
// and returns the sum of the windows' peak powers.
func fftUnit(in []complex64, twiddle, buf []complex128) float64 {
	rot := complex(math.Cos(0.01), math.Sin(0.01))
	var acc float64
	for off := 0; off+kernelFFT <= len(in); off += kernelFFT {
		ph := complex(1, 0)
		for i := range buf {
			buf[i] = complex128(in[off+i]) * ph
			ph *= rot
		}
		for i, j := 1, 0; i < kernelFFT; i++ {
			bit := kernelFFT >> 1
			for ; j&bit != 0; bit >>= 1 {
				j ^= bit
			}
			j ^= bit
			if i < j {
				buf[i], buf[j] = buf[j], buf[i]
			}
		}
		for size := 2; size <= kernelFFT; size <<= 1 {
			half, step := size/2, kernelFFT/size
			for s := 0; s < kernelFFT; s += size {
				for i := 0; i < half; i++ {
					x := twiddle[i*step] * buf[s+i+half]
					buf[s+i+half] = buf[s+i] - x
					buf[s+i] += x
				}
			}
		}
		var peak float64
		for _, v := range buf {
			peak = max(peak, real(v)*real(v)+imag(v)*imag(v))
		}
		acc += peak
	}
	return acc
}
