package dsp

import (
	"math"
	"math/rand"
)

// DEConfig configures the differential-evolution global optimizer
// (Storn & Price 1997), the solver the paper uses for its least-squares FB
// estimation (§7.1.2, via scipy's differential_evolution).
type DEConfig struct {
	// PopulationSize is the number of candidate vectors; if < 4 a default of
	// 15 per dimension is used.
	PopulationSize int
	// MaxGenerations bounds the number of evolution rounds. Default 100.
	MaxGenerations int
	// Rand supplies randomness; it must be non-nil.
	Rand *rand.Rand
}

// Differential-evolution strategy constants.
const (
	// deF is the differential weight.
	deF = 0.7
	// deCR is the crossover probability.
	deCR = 0.9
	// deTol terminates evolution early when the population's cost spread
	// falls below deTol·|mean cost|.
	deTol = 1e-8
	// dePolishIters is the number of coordinate-descent refinement steps
	// applied to the best vector after evolution.
	dePolishIters = 40
)

// DEResult reports the optimizer outcome.
type DEResult struct {
	X           []float64 // best vector found
	Cost        float64   // objective at X
	Generations int       // generations actually run
}

// DifferentialEvolution minimizes fn over the box [lower[i], upper[i]] using
// the DE/rand/1/bin strategy followed by a coordinate-descent polish. fn
// must be safe to call repeatedly; it is never called concurrently.
func DifferentialEvolution(fn func([]float64) float64, lower, upper []float64, cfg DEConfig) DEResult {
	dim := len(lower)
	if dim == 0 || len(upper) != dim || cfg.Rand == nil {
		return DEResult{Cost: math.Inf(1)}
	}
	rng := cfg.Rand
	np := cfg.PopulationSize
	if np < 4 {
		np = 15 * dim
		if np < 20 {
			np = 20
		}
	}
	maxGen := cfg.MaxGenerations
	if maxGen <= 0 {
		maxGen = 100
	}

	clamp := func(v float64, i int) float64 {
		if v < lower[i] {
			return lower[i]
		}
		if v > upper[i] {
			return upper[i]
		}
		return v
	}

	pop := make([][]float64, np)
	cost := make([]float64, np)
	for i := range pop {
		v := make([]float64, dim)
		for d := 0; d < dim; d++ {
			v[d] = lower[d] + rng.Float64()*(upper[d]-lower[d])
		}
		pop[i] = v
		cost[i] = fn(v)
	}
	trial := make([]float64, dim)
	gens := 0
	for g := 0; g < maxGen; g++ {
		gens = g + 1
		for i := 0; i < np; i++ {
			// Pick three distinct indices != i.
			var a, b, c int
			for {
				a = rng.Intn(np)
				if a != i {
					break
				}
			}
			for {
				b = rng.Intn(np)
				if b != i && b != a {
					break
				}
			}
			for {
				c = rng.Intn(np)
				if c != i && c != a && c != b {
					break
				}
			}
			jRand := rng.Intn(dim)
			for d := 0; d < dim; d++ {
				if d == jRand || rng.Float64() < deCR {
					trial[d] = clamp(pop[a][d]+deF*(pop[b][d]-pop[c][d]), d)
				} else {
					trial[d] = pop[i][d]
				}
			}
			tc := fn(trial)
			if tc <= cost[i] {
				copy(pop[i], trial)
				cost[i] = tc
			}
		}
		// Convergence check.
		minC, maxC, sumC := math.Inf(1), math.Inf(-1), 0.0
		for _, cv := range cost {
			if cv < minC {
				minC = cv
			}
			if cv > maxC {
				maxC = cv
			}
			sumC += cv
		}
		mean := sumC / float64(np)
		if maxC-minC <= deTol*(math.Abs(mean)+deTol) {
			break
		}
	}
	bestI := 0
	for i := 1; i < np; i++ {
		if cost[i] < cost[bestI] {
			bestI = i
		}
	}
	best := make([]float64, dim)
	copy(best, pop[bestI])
	bestCost := cost[bestI]

	// Coordinate-descent polish: shrink a per-dimension step until no
	// improvement.
	steps := make([]float64, dim)
	for d := range steps {
		steps[d] = (upper[d] - lower[d]) / float64(np)
	}
	for it := 0; it < dePolishIters; it++ {
		improved := false
		for d := 0; d < dim; d++ {
			for _, dir := range []float64{1, -1} {
				cand := clamp(best[d]+dir*steps[d], d)
				if cand == best[d] {
					continue
				}
				old := best[d]
				best[d] = cand
				c := fn(best)
				if c < bestCost {
					bestCost = c
					improved = true
				} else {
					best[d] = old
				}
			}
		}
		if !improved {
			for d := range steps {
				steps[d] /= 2
			}
		}
	}
	return DEResult{X: best, Cost: bestCost, Generations: gens}
}
