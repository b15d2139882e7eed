// Package orcvet statically enforces the repository's OrcGC protection
// discipline — the invariant the paper's safety argument rests on and
// the torture harness (DESIGN §8) can only witness dynamically for the
// schedules it happens to explore. Four rules, checked per function
// body over the typed AST:
//
//	protect  (protect-before-deref): every dereference of an
//	         arena.Handle — arena.Get/Header/HdrA, Domain.Get; TryGet
//	         and Domain.Peek are exempt as the generation-validated
//	         speculative read — must be dominated by a successful
//	         protection of the same value (Scheme.GetProtected/Protect,
//	         Domain.Load/LoadScratch/Make/Exchange, a live core.Ptr), or
//	         the value must be a structure root (receiver field) or a
//	         fresh unpublished allocation. Dereferencing a raw shared
//	         load (arena.Handle(x.Load()), Atomic.Raw(), Atomic.Peek())
//	         or a handle whose protection was dropped
//	         (Clear/ClearAll/Release) is reported.
//
//	escape   (no-escape-past-release): a raw node pointer (*T obtained
//	         from a deref) or a core.Ptr must not outlive the
//	         protection that makes it safe: no stores to struct fields
//	         or package-level variables, no channel sends, no capture
//	         by go-statement closures, no by-value core.Ptr copies
//	         (copying a Ptr forks its protection bookkeeping), and no
//	         raw node pointers returned from exported functions.
//
//	retire   (retire-after-unlink): Scheme.Retire arguments must be
//	         provably unlinked — a CAS naming the handle must precede
//	         the retire in the function — and the handle must not be
//	         dereferenced or re-protected afterwards (use-after-retire,
//	         the shape of both TBKP helping races PR 4 fixed).
//
//	unsafe   (raw-pointer hygiene): unsafe.Pointer / uintptr
//	         conversions of arena-managed node pointers or
//	         arena.Handle values are only legal inside internal/arena
//	         and internal/core, the two packages that own the
//	         handle↔memory mapping.
//
// The analysis is deliberately a conservative lexical approximation,
// not a sound dataflow: statements are interpreted in source order,
// branches are folded into one sequential trace, and unknown values
// stay silent. The goal is the reviewer's checklist, mechanized: zero
// noise on the committed tree, and every seeded violation in the
// testdata corpus caught. Soundness caveats are catalogued in DESIGN
// §10.
//
// Deliberate violations are suppressed line-by-line with
//
//	//orcvet:ignore <rule> <reason>
//
// on the offending line or the line above, or — for files whose whole
// design exempts a rule (the _leak baselines never reclaim; the
// epoch-protected skiplist keeps raw loads dereferenceable by pinning
// the epoch in BeginOp) — file-wide with
//
//	//orcvet:file-ignore <rule> <reason>
//
// Both forms require a rule name and a non-empty reason so every
// suppression stays auditable; malformed and stale pragmas are
// themselves reported.
package orcvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Version is reported through the vettool -V protocol; bump when rule
// semantics change so the go command's action cache re-runs the pass.
const Version = "v0.5.0"

// Rule names, as they appear in diagnostics and ignore pragmas.
const (
	RuleProtect = "protect"
	RuleEscape  = "escape"
	RuleRetire  = "retire"
	RuleUnsafe  = "unsafe"
	RulePragma  = "pragma"
)

var allRules = []string{RuleProtect, RuleEscape, RuleRetire, RuleUnsafe}

// exemptPkgs own the handle↔memory mapping (rule unsafe) and the
// protection machinery itself (rules protect/retire would be
// tautological inside them).
var exemptPkgs = map[string]bool{
	"repro/internal/arena": true,
	"repro/internal/core":  true,
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Rule    string
	Message string
}

// Pass is one package's analysis input: the typed syntax the driver
// (standalone, vettool, or test) assembled.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Analyze runs every rule over one package and returns the unsuppressed
// findings in file/position order.
func Analyze(pass *Pass) []Diagnostic {
	c := &checker{
		pass:      pass,
		model:     newModel(pass),
		summaries: map[*types.Func]*funcSummary{},
	}
	if exemptPkgs[pass.Pkg.Path()] {
		// The machinery packages get only the pragma lint: their
		// internals are the discipline being enforced elsewhere.
		c.checkPragmas()
		return c.finish()
	}
	c.computeSummaries()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd)
			}
		}
		c.checkUnsafe(f)
	}
	c.checkPragmas()
	return c.finish()
}

type checker struct {
	pass      *Pass
	model     *model
	summaries map[*types.Func]*funcSummary
	diags     []Diagnostic
	// pragmas holds each file's parsed //orcvet: directives, collected
	// lazily per file.
	pragmas map[*ast.File]*filePragmas
	// usedPragmas records which pragmas suppressed something, so dead
	// pragmas can be reported (a stale ignore is a lie in the audit
	// trail).
	usedPragmas map[string]bool
}

type pragma struct {
	rule   string
	reason string
	pos    token.Pos
	bad    bool // malformed: missing/unknown rule or missing reason
	file   bool // //orcvet:file-ignore — covers the whole file
}

type filePragmas struct {
	byLine map[int]pragma
	byRule map[string]pragma // file-level, rule → pragma
	all    []pragma
}

func (c *checker) reportf(pos token.Pos, rule, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{Pos: pos, Rule: rule, Message: fmt.Sprintf(format, args...)})
}

// parsePragmas scans a file's comments for //orcvet:ignore and
// //orcvet:file-ignore directives.
func (c *checker) parsePragmas(f *ast.File) *filePragmas {
	if c.pragmas == nil {
		c.pragmas = map[*ast.File]*filePragmas{}
	}
	if fp, ok := c.pragmas[f]; ok {
		return fp
	}
	fp := &filePragmas{byLine: map[int]pragma{}, byRule: map[string]pragma{}}
	for _, cg := range f.Comments {
		for _, cm := range cg.List {
			rest, ok := strings.CutPrefix(cm.Text, "//orcvet:")
			if !ok {
				continue
			}
			p := pragma{pos: cm.Pos()}
			var body string
			switch {
			case strings.HasPrefix(rest, "file-ignore"):
				p.file = true
				body = strings.TrimPrefix(rest, "file-ignore")
			case strings.HasPrefix(rest, "ignore"):
				body = strings.TrimPrefix(rest, "ignore")
			default:
				p.bad = true // unknown directive
			}
			if !p.bad {
				fields := strings.Fields(body)
				if len(fields) < 2 {
					p.bad = true
				} else {
					p.rule = fields[0]
					p.reason = strings.Join(fields[1:], " ")
					if !validRule(p.rule) {
						p.bad = true
					}
				}
			}
			fp.all = append(fp.all, p)
			if p.bad {
				continue
			}
			if p.file {
				fp.byRule[p.rule] = p
			} else {
				fp.byLine[c.pass.Fset.Position(cm.Pos()).Line] = p
			}
		}
	}
	c.pragmas[f] = fp
	return fp
}

func validRule(r string) bool {
	for _, k := range allRules {
		if k == r {
			return true
		}
	}
	return false
}

// suppressed reports whether a finding at pos with the given rule is
// covered by an ignore pragma on the same line or the line above, or by
// a file-level //orcvet:file-ignore for the rule.
func (c *checker) suppressed(pos token.Pos, rule string) bool {
	f := c.fileFor(pos)
	if f == nil {
		return false
	}
	fp := c.parsePragmas(f)
	line := c.pass.Fset.Position(pos).Line
	for _, l := range [2]int{line, line - 1} {
		if p, ok := fp.byLine[l]; ok && p.rule == rule {
			c.markUsed(p)
			return true
		}
	}
	if p, ok := fp.byRule[rule]; ok {
		c.markUsed(p)
		return true
	}
	return false
}

func (c *checker) markUsed(p pragma) {
	if c.usedPragmas == nil {
		c.usedPragmas = map[string]bool{}
	}
	c.usedPragmas[pragmaKey(c.pass.Fset, p.pos)] = true
}

func pragmaKey(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

func (c *checker) fileFor(pos token.Pos) *ast.File {
	for _, f := range c.pass.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// checkPragmas reports malformed pragmas and pragmas that suppressed
// nothing.
func (c *checker) checkPragmas() {
	for _, f := range c.pass.Files {
		for _, p := range c.parsePragmas(f).all {
			if p.bad {
				c.reportf(p.pos, RulePragma,
					"malformed //orcvet: pragma: want //orcvet:ignore <rule> <reason> or //orcvet:file-ignore <rule> <reason>, rules are %s",
					strings.Join(allRules, "|"))
				continue
			}
			if !c.usedPragmas[pragmaKey(c.pass.Fset, p.pos)] {
				form := "ignore"
				if p.file {
					form = "file-ignore"
				}
				c.reportf(p.pos, RulePragma,
					"//orcvet:%s %s suppresses nothing (stale pragma?)", form, p.rule)
			}
		}
	}
}

// finish filters suppressed findings and orders the rest.
func (c *checker) finish() []Diagnostic {
	// Suppression runs here, after all rules, so usedPragmas is
	// complete before checkPragmas — but checkPragmas already ran.
	// Order of operations: rules record into diags unsuppressed-checked
	// at report time via reportf callers using maybeReport; pragma
	// findings are never suppressible.
	sort.Slice(c.diags, func(i, j int) bool { return c.diags[i].Pos < c.diags[j].Pos })
	return c.diags
}

// maybeReport files a finding unless an ignore pragma covers it.
func (c *checker) maybeReport(pos token.Pos, rule, format string, args ...any) {
	if c.suppressed(pos, rule) {
		return
	}
	c.reportf(pos, rule, format, args...)
}
