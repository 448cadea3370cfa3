//go:build race

package netserver

// raceEnabled reports that the race detector instruments this build.
// Allocation budgets are pinned in normal builds only; race builds check
// the same paths for data races.
const raceEnabled = true
