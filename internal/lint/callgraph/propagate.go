package callgraph

import (
	"strings"
)

// An Offense is one contract violation somewhere down a call chain: what
// the offending function does (Detail, e.g. "calls time.Now") and the
// chain of display names from — exclusive — the function the offense is
// attributed to, down to the offender. A direct offense has an empty
// Chain; a function whose callee g offends directly carries
// Chain = [g]; and so on.
type Offense struct {
	// Detail describes the primitive violation, phrased after the
	// offender's name: "calls time.Now", "allocates with make".
	Detail string
	// Chain is the path of DisplayName strings from the attributed
	// function (exclusive) to the offender (inclusive). Empty for a
	// direct offense.
	Chain []string
}

// Offender returns the display name of the function that commits the
// primitive violation: the chain's last element, or fallback (the
// attributed function itself) when the offense is direct.
func (o *Offense) Offender(fallback string) string {
	if len(o.Chain) == 0 {
		return fallback
	}
	return o.Chain[len(o.Chain)-1]
}

// Format renders the canonical chain diagnostic,
// "a → b → c: c calls time.Now", for an offense observed from root
// through its callee (the edge's target).
func (o *Offense) Format(root, callee string) string {
	parts := append([]string{root, callee}, o.Chain...)
	offender := o.Offender(callee)
	return strings.Join(parts, " → ") + ": " + offender + " " + o.Detail
}

// A Rule parameterizes offense propagation for one analyzer: which body
// operations offend directly, what is known about callees with no syntax
// in the load, which call edges the analyzer's escape hatch silences, and
// the offenses already solved for loaded functions.
type Rule struct {
	// Direct scans a node's own body (Decl is non-nil) and returns its
	// first primitive offense, hatch-filtered, or nil.
	Direct func(n *Node) *Offense
	// External models callees with no syntax anywhere in the load
	// (standard library, packages outside the lint run). nil is "assumed
	// clean".
	External func(n *Node) *Offense
	// EdgeOK reports whether an escape hatch at the call site silences
	// propagation across this edge.
	EdgeOK func(e *Edge) bool
	// Solved maps Node.Key to the offense of every offending function
	// solved so far. softlora-lint shares one map across the packages of
	// a run, solved in dependency order, so a callee declared in an
	// earlier package is already settled when a later package asks.
	Solved map[string]*Offense
}

// Solve computes, for every node in nodes (one package's declared
// functions), whether it transitively commits an offense: directly in its
// body, or through any un-hatched call edge to an offending callee, and
// records each offense found in Solved. Callees inside the set resolve
// through the fixpoint; callees outside it resolve through Lookup. The
// iteration order is the deterministic node order, so chain attribution
// is stable across runs.
func (r *Rule) Solve(nodes []*Node) {
	local := make(map[string]*Offense, len(nodes))
	inSet := make(map[string]bool, len(nodes))
	direct := make(map[string]*Offense, len(nodes))
	for _, n := range nodes {
		inSet[n.Key] = true
		if r.Direct != nil && n.Decl != nil {
			direct[n.Key] = r.Direct(n)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			if local[n.Key] != nil {
				continue
			}
			var off *Offense
			if d := direct[n.Key]; d != nil {
				off = d
			} else {
				for _, e := range n.Out {
					if e.InPanic || (r.EdgeOK != nil && r.EdgeOK(e)) {
						continue
					}
					var sub *Offense
					if inSet[e.Callee.Key] {
						sub = local[e.Callee.Key]
					} else {
						sub = r.Lookup(e.Callee)
					}
					if sub != nil {
						off = &Offense{
							Detail: sub.Detail,
							Chain:  append([]string{DisplayName(e.Callee.Func)}, sub.Chain...),
						}
						break
					}
				}
			}
			if off != nil {
				local[n.Key] = off
				changed = true
			}
		}
	}
	for _, n := range nodes {
		if off := local[n.Key]; off != nil {
			r.Solved[n.Key] = off
		}
	}
}

// Lookup resolves a callee's offense: from Solved for a function with
// syntax in the load, from the External model otherwise.
func (r *Rule) Lookup(callee *Node) *Offense {
	if callee.Decl != nil {
		return r.Solved[callee.Key]
	}
	if r.External != nil {
		return r.External(callee)
	}
	return nil
}
