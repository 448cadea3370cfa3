package lint

import (
	"softlora/internal/lint/allocfree"
	"softlora/internal/lint/analysis"
	"softlora/internal/lint/determinism"
	"softlora/internal/lint/lockshard"
)

// Analyzers returns the full softlora-lint suite, in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		allocfree.Analyzer,
		lockshard.Analyzer,
	}
}
