// Package lint is moca-vet's analysis framework: a deliberately small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// surface the suite needs. The repo's toolchain policy is stdlib-only, so
// instead of x/tools the loader feeds go/types from the compiler export
// data `go list -export` already produces, and analyzers receive the same
// (Fset, Files, Pkg, TypesInfo, Report) shape they would under the real
// driver — porting them onto x/tools later is a mechanical change.
//
// The suite machine-checks the determinism conventions the simulator's
// correctness rests on:
//
//   - maporder: no unordered map iteration in deterministic packages
//     (suppress with `//moca:unordered <reason>`);
//   - walltime: no wall-clock, global math/rand, or environment reads in
//     the simulation core (suppress with `//moca:wallclock <reason>`);
//   - hotalloc: no closures, fmt calls, or allocating interface boxing in
//     functions annotated `//moca:hotpath` (suppress a line with
//     `//moca:allowalloc <reason>`);
//   - behaviorversion: the cache-visible sim.Result schema must match the
//     checked-in fingerprint, and schema changes must bump
//     sim.BehaviorVersion.
//
// Phase 2 extends the suite to the concurrent serving layer (internal/wire,
// internal/exp, internal/obs), whose failure modes are liveness and
// protocol bugs rather than nondeterminism:
//
//   - lockhold: no blocking operations (frame/conn I/O, channel ops
//     without a default, simulation runs, time.Sleep) while a sync.Mutex
//     or RWMutex is held (suppress with `//moca:allowhold <reason>`);
//   - ctxflow: serving code must thread caller contexts — no
//     context.Background()/TODO() outside main, no ctx-blind blocking
//     calls from ctx-taking functions, and long-lived for+select loops
//     need a ctx.Done() case (suppress with `//moca:allowctx <reason>`);
//   - wiredispatch: frame dispatch switches must handle every wire.Type*
//     constant of their direction, the FuzzReadFrame seed corpus must
//     cover every frame type, and decode-sized allocations must be
//     bounds-checked first (suppress with `//moca:allowdispatch` /
//     `//moca:allowsize <reason>`);
//   - goroleak: goroutines in serving packages must be tied to a
//     sync.WaitGroup or annotated `//moca:gorountracked <reason>`.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one package's parsed and type-checked state to an analyzer.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Dir is the package's source directory on disk.
	Dir string
	// ModulePath is the module the analyzed packages belong to (used to
	// decide which named types the schema fingerprint expands).
	ModulePath string

	Report func(Diagnostic)

	// reportWaiver, when set by the driver, records every honored
	// suppression annotation so callers (moca-vet -json) can keep waived
	// findings visible instead of silently dropping them.
	reportWaiver func(directive, reason string, pos token.Pos)

	// comments caches per-file line→directive lookups.
	comments map[*ast.File]map[int][]string
}

// Diagnostic is one finding. Fix, when non-empty, is a human-applicable
// suggested fix rendered alongside the message.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	Fix     string
}

// Reportf reports a formatted diagnostic with no suggested fix.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// DeterministicPackages names the packages whose behavior feeds golden
// snapshots, record/replay, or persistent cache keys. maporder and
// walltime only fire inside these (matched on the import path's last
// element, so analysistest packages named e.g. "sim" opt in too).
var DeterministicPackages = map[string]bool{
	"event":    true,
	"mem":      true,
	"cache":    true,
	"vm":       true,
	"sim":      true,
	"profile":  true,
	"alloc":    true,
	"classify": true,
	// obs and stats render -metrics output that golden runs diff
	// byte-for-byte, so they carry the same burden.
	"obs":   true,
	"stats": true,
}

// isDeterministicPkg reports whether the import path names a package in
// the deterministic set.
func isDeterministicPkg(importPath string) bool {
	return DeterministicPackages[pathBase(importPath)]
}

// pathBase returns the last element of an import path.
func pathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// Annotation directives. Suppressions take a mandatory free-text reason.
const (
	DirectiveHotPath       = "//moca:hotpath"
	DirectiveUnordered     = "//moca:unordered"
	DirectiveWallClock     = "//moca:wallclock"
	DirectiveAllowAlloc    = "//moca:allowalloc"
	DirectiveAllowHold     = "//moca:allowhold"
	DirectiveAllowCtx      = "//moca:allowctx"
	DirectiveAllowSize     = "//moca:allowsize"
	DirectiveAllowDispatch = "//moca:allowdispatch"
	DirectiveGoroTracked   = "//moca:gorountracked"
)

// commentLines builds (and caches) the file's line→comment-text index.
func (p *Pass) commentLines(f *ast.File) map[int][]string {
	if p.comments == nil {
		p.comments = make(map[*ast.File]map[int][]string)
	}
	if m, ok := p.comments[f]; ok {
		return m
	}
	m := make(map[int][]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			line := p.Fset.Position(c.Pos()).Line
			m[line] = append(m[line], c.Text)
		}
	}
	p.comments[f] = m
	return m
}

// suppression looks for the given directive on the node's line or the line
// directly above it. It returns (found, reason).
func (p *Pass) suppression(f *ast.File, pos token.Pos, directive string) (bool, string) {
	lines := p.commentLines(f)
	line := p.Fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, text := range lines[l] {
			if rest, ok := directiveText(text, directive); ok {
				return true, rest
			}
		}
	}
	return false, ""
}

// checkSuppressed is the shared suppression workflow: if the directive is
// present with a reason the finding is suppressed (returns true); present
// without a reason it reports the missing reason and still suppresses the
// underlying finding (the annotation is there, it is just incomplete).
func (p *Pass) checkSuppressed(f *ast.File, pos token.Pos, directive string) bool {
	found, reason := p.suppression(f, pos, directive)
	if !found {
		return false
	}
	if strings.TrimSpace(reason) == "" {
		p.Reportf(pos, "%s annotation is missing its reason", directive)
	} else if p.reportWaiver != nil {
		p.reportWaiver(directive, reason, pos)
	}
	return true
}

// directiveText matches a `//moca:` directive comment and returns the text
// after the directive word. "//moca:hotpath" matches exactly or followed
// by whitespace, so "//moca:hotpathological" does not.
func directiveText(comment, directive string) (string, bool) {
	if !strings.HasPrefix(comment, directive) {
		return "", false
	}
	rest := comment[len(directive):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// hasDirective reports whether any comment in the group is the directive.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if _, ok := directiveText(c.Text, directive); ok {
			return true
		}
	}
	return false
}

// pkgFuncOf resolves a selector expression like `time.Now` to its package
// import path and function name, when X names an imported package.
func pkgFuncOf(info *types.Info, sel *ast.SelectorExpr) (pkgPath, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// Analyzers returns the full moca-vet suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapOrder, WallTime, HotAlloc, BehaviorVersion,
		LockHold, CtxFlow, WireDispatch, GoroLeak,
	}
}
