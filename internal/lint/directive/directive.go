// Package directive parses the //softlora: comment directives that scope
// and silence the softlora-lint analyzers. A directive is a line comment
// of the form
//
//	//softlora:<name> [argument or justification...]
//
// attached like a //go: directive: no space after the slashes. Three
// attachment points matter to the analyzers:
//
//   - package scope: a directive anywhere in a package's files (by
//     convention in doc.go next to the package clause) opts the whole
//     package into an analyzer — e.g. //softlora:deterministic.
//   - declaration scope: a directive in a FuncDecl's doc comment group
//     marks that function — e.g. //softlora:allocfree — and a directive in
//     a struct field's doc or trailing comment annotates the field —
//     e.g. //softlora:guarded-by mu.
//   - site scope: an escape hatch on the offending line, or the line
//     directly above it, silences one diagnostic — e.g.
//     //softlora:nondeterministic-ok map feeds a sorted encoder.
//
// Escape hatches should carry a justification after the directive name;
// the analyzers do not enforce one, reviewers do. softlora-lint rejects a
// directive whose name no analyzer declares, so a misspelled annotation
// cannot silently leave code unchecked.
package directive

import (
	"go/ast"
	"go/token"
	"strings"
)

const prefix = "//softlora:"

// A Directive is one parsed //softlora: comment.
type Directive struct {
	Name string // e.g. "allocfree", "nondeterministic-ok"
	Args string // remainder of the line, trimmed
	Pos  token.Pos
	Line int
	File string
	// PackageLevel marks a directive placed above the file's package
	// clause — the attachment point that opts a whole package in.
	PackageLevel bool
}

// Index holds every //softlora: directive of one package, queryable by
// package, declaration, and line.
type Index struct {
	fset   *token.FileSet
	all    []Directive
	byName map[string][]Directive
	// byFileLine maps file name and line to the directives on that line.
	byFileLine map[string]map[int][]Directive
}

// NewIndex scans files for //softlora: directives.
func NewIndex(fset *token.FileSet, files []*ast.File) *Index {
	ix := &Index{
		fset:       fset,
		byName:     make(map[string][]Directive),
		byFileLine: make(map[string]map[int][]Directive),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parse(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				d.Pos = c.Pos()
				d.Line = pos.Line
				d.File = pos.Filename
				d.PackageLevel = c.Pos() < f.Package
				ix.all = append(ix.all, d)
				ix.byName[d.Name] = append(ix.byName[d.Name], d)
				lines := ix.byFileLine[d.File]
				if lines == nil {
					lines = make(map[int][]Directive)
					ix.byFileLine[d.File] = lines
				}
				lines[d.Line] = append(lines[d.Line], d)
			}
		}
	}
	return ix
}

func parse(text string) (Directive, bool) {
	if !strings.HasPrefix(text, prefix) {
		return Directive{}, false
	}
	rest := text[len(prefix):]
	name := rest
	args := ""
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name, args = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	if name == "" {
		return Directive{}, false
	}
	return Directive{Name: name, Args: args}, true
}

// All returns every directive of the package.
func (ix *Index) All() []Directive { return ix.all }

// PackageHas reports whether any file of the package carries the named
// directive above its package clause (the package-wide opt-in position,
// by convention in doc.go).
func (ix *Index) PackageHas(name string) bool {
	for _, d := range ix.byName[name] {
		if d.PackageLevel {
			return true
		}
	}
	return false
}

// PackageHasNonTest is PackageHas restricted to directives living in
// non-_test.go files. Test-variant loads include the package's regular
// files, so a doc.go package directive would otherwise leak its scope
// onto test functions; analyzers use this form for package-wide opt-ins
// so test code participates only through explicit function annotations.
func (ix *Index) PackageHasNonTest(name string) bool {
	for _, d := range ix.byName[name] {
		if d.PackageLevel && !strings.HasSuffix(d.File, "_test.go") {
			return true
		}
	}
	return false
}

// FromComments returns the first directive with the given name in a
// comment group (a FuncDecl doc, a field doc or trailing comment), if any.
func FromComments(cg *ast.CommentGroup, name string) (Directive, bool) {
	if cg == nil {
		return Directive{}, false
	}
	for _, c := range cg.List {
		if d, ok := parse(c.Text); ok && d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

// FuncHas reports whether fn's doc comment carries the named directive.
func FuncHas(fn *ast.FuncDecl, name string) bool {
	_, ok := FromComments(fn.Doc, name)
	return ok
}

// OKAt reports whether an escape-hatch directive with the given name
// appears on the same line as pos or on the line directly above it — the
// two placements that silence a diagnostic at pos.
func (ix *Index) OKAt(pos token.Pos, name string) bool {
	p := ix.fset.Position(pos)
	lines := ix.byFileLine[p.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for _, d := range lines[line] {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}
