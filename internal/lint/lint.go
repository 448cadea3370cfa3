package lint

import (
	"softlora/internal/lint/allocfree"
	"softlora/internal/lint/analysis"
	"softlora/internal/lint/determinism"
	"softlora/internal/lint/lockshard"
	"softlora/internal/lint/poolcheck"
)

// Analyzers returns the full softlora-lint suite, in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		allocfree.Analyzer,
		poolcheck.Analyzer,
		lockshard.Analyzer,
	}
}
