// Package dsp provides the signal-processing substrate used by the SoftLoRa
// gateway: complex baseband (I/Q) trace manipulation, FFT and spectrograms,
// single-frequency DFT evaluation (Goertzel) with sliding-window updates,
// Hilbert-transform envelopes, FIR filtering, phase unwrapping, linear
// regression, Akaike Information Criterion onset picking,
// differential-evolution optimization, and seedable Gaussian and coloured
// noise generation.
//
// All routines operate on discrete-time complex baseband traces sampled at a
// caller-supplied rate. The package is deterministic: every stochastic
// routine takes an explicit *rand.Rand so experiments are reproducible.
//
// # Plans and scratch ownership
//
// Hot paths transform through Plan: per-size cached twiddle factors and
// permutation tables whose Transform/TransformInPlace/InverseInPlace entry
// points never allocate after construction. A plan whose size's log2 is
// even (4, 16, …, 256, 1024, 4096 — every hot gateway size) runs a
// radix-4 butterfly kernel, ~25 % fewer multiplies than radix-2; odd-log2
// sizes fall back to the radix-2 kernel.
// Plans are immutable, so the process-wide cache behind PlanFor may hand
// the same *Plan to any number of goroutines. Everything mutable is the
// CALLER's scratch — the buffers paired with a plan, and the stateful
// helpers (SpectrogramPlan, HilbertScratch, AICScratch, SlidingDFT, a
// FIRFilter once applied) — and is strictly single-goroutine: one
// plan/scratch set per worker, no sharing. The one-shot conveniences (FFT,
// Spectrogram, Apply, GoertzelDFT, GoertzelMany) allocate nothing or per
// call and stay safe for casual use.
//
// # Full-spectrum, few-bin, and decimated evaluation
//
// The package offers three cost tiers for spectral evaluation, which is
// what the onset detector's coarse→fine hierarchy in package core is built
// from. A Plan transform computes every bin in O(n log n). GoertzelDFT
// evaluates one arbitrary frequency in O(n). GoertzelMany evaluates a
// frequency set of one window, reading the window once per three
// frequencies: a lone Goertzel recurrence waits on its previous sample, and
// three interleaved ones fill that wait, while each keeps GoertzelDFT's
// operation order, so every output is bit-identical to GoertzelDFT's.
// SlidingDFT tracks a fixed frequency set across a sliding window at
// O(bins) per one-sample shift — the right shape when successive windows
// overlap almost entirely; its Reset seeds the sums with GoertzelMany.
// DechirpScratch.DechirpDecimateInto trades frequency span instead of
// resolution: it boxcar-sums the dechirped product by the decimation
// factor, so a proportionally smaller transform of the result keeps the
// full window's coherent gain over the surviving band (compensate the
// boxcar's sinc droop per bin with BoxcarDroopSq).
//
// A caller that fills a buffer only to transform it transforms out of
// place: Plan.Transform's radix-4 path reads the source through the
// digit-reversal permutation inside the first butterfly stage, and reads
// zeros past its end, so no copy, zero fill or separate swap pass runs
// before the butterflies. The coarse onset scan keeps one decimated window, zero past
// n/d, and transforms it window by window (BenchmarkFFTPlan's padded-*
// cases time those shapes). The decision-stage float32 lanes trade
// precision for bandwidth where the consumer's error budget allows it:
// AICScratch.Onset32Strided and FIRFilter.ApplyRealRangeInto32 run the
// onset detector's coarse/mid argmin stages on float32 data with a float32
// Cephes log (~4e-7 relative), halving the memory traffic of the widest
// scans. The contract is that float32 output feeds DECISIONS (an argmin
// handed to a dense float64 refinement), never values that flow into the
// bias database.
//
// # The AIC search tier
//
// OnsetStrided/Onset32Strided cut the argmin cost by evaluating every
// stride-th candidate and densely refining around the winner; stride 1 is
// the dense search Onset runs. Both build their prefix sums with the
// running sums held in registers (aicPrefix) and scan candidates in plain
// loops (aicScan, aicScan32) with no closure; the float32 scan also runs
// its two logs inline, lane by lane, so a candidate costs no call at all
// (as a function, the log costs 144 against the inliner's budget of 80, so
// the compiler would never inline it). Every AIC value and every pick is
// bit-identical to a per-candidate closure over a scalar log, which the
// tests keep as the oracle (TestAICSearchesMatchClosureForms). The range
// FIR under the mid stage likewise runs its four-accumulator inner product
// inline for interior outputs, bit-identical to a per-output evaluator
// (TestFIRRange32MatchesConvRealAt32).
//
// ZoomDFT adds the zoom tier between "one bin" and "all bins": a planned
// chirp-Z transform that evaluates a dense uniform grid of `points`
// frequencies anywhere in the band at O((m+points)·log(m+points)) — two
// planned FFTs per call — against O(points·m) for one Goertzel evaluation
// per grid point (BenchmarkZoomGrid times it at the FB estimator's
// 307-sample/65-point geometry). The gateway's dechirped-tone readout in
// package core — the one both frequency-bias estimators (dechirp-FFT and
// up/down) read their tones through — is the canonical composition:
// DechirpDecimateInto shrinks the band, a small plan transform localizes
// the tone to a coarse bin, and ZoomDFT refines it on a grid finer than
// any affordable padded FFT, with FoldFrequency wrapping interpolated
// readouts back into the principal alias band.
//
// # Synthesis-path cost tiers and the oscillator drift contract
//
// Waveform synthesis and front-end rotation have their own cost ladder,
// mirrored on the analysis tiers above. Direct rendering — evaluate the
// phase polynomial, then math.Sincos — costs ~25 ns per sample and is the
// reference everything else is tested against. Oscillator and Rotator
// replace it with complex-multiply recurrences: a LoRa chirp's phase is
// quadratic in the sample index, so its sample stream obeys the
// second-order recurrence s[i+1] = s[i]·r[i], r[i+1] = r[i]·q with constant
// q = exp(j·2π·k·dt²) — two multiplies per sample (Oscillator); a
// constant-frequency rotation needs only the first-order s[i+1] = s[i]·r
// (Rotator, one multiply). Measured on the gateway benchmarks the
// recurrences run 5–10× faster than direct trig (BenchmarkChirpSynthesize,
// BenchmarkSDRDownconvert). GaussianSource is the noise-synthesis analogue:
// a seedable 128-layer ziggurat over a splitmix64 counter whose steady-state
// Norm draw is a buffered read (zero allocations, O(1) seeding), ~10×
// cheaper than math/rand's NormFloat64 — the SDR front end burns two draws
// per complex sample on ADC dither (one per component), so this is what
// keeps quantization off the batch profile's top. Block consumers call
// Fill, which generates straight into their slice, two draws per loop
// iteration with no call in the loop, and resolves a pair with a miss
// outside it: an accepted first draw is kept and only the missed one is
// resolved, from its own stream position. BenchmarkGaussianSource times
// both paths (5.3–5.6 ns per draw with Fill against 6.1–7.8 with Norm,
// five runs each on a 2-vCPU Xeon VM); Fill, Norm and the serial drawOne
// definition emit the same stream bit for bit. A draw that misses its layer's rectangle takes
// the wedge density test y < e^(−x²/2); wedgeBelow brackets the curve
// between two Taylor partial sums about the wedge's top edge and calls
// math.Exp only when y lies within a stated margin (2^-40, ~90× every
// rounding error involved) of the bracket, so its decisions are the exact
// comparison's (TestWedgeSqueezeMatchesExact).
//
// The drift contract: each recurrence step rounds, so magnitude and phase
// wander as a slow random walk. Every OscRenormInterval (1024) steps the
// oscillators re-seed s and r exactly from the closed-form phase
// polynomial, which caps the accumulated error at what ≤1024 complex
// multiplies can introduce — observed < 1e-12 rad and pinned < 1e-9 rad per
// block by the drift property tests (oscillator_test.go, and
// lora's oscillator-vs-Sincos parity suite across SF 7–12 with realistic
// frequency offsets). Consumers therefore treat oscillator output as exact:
// the channel renders every chirp through Oscillator (lora.ChirpSpec.AddTo)
// and the SDR front end corrects its LO through Rotator.MulInto, with no
// accuracy budget set aside for the recurrence.
package dsp
