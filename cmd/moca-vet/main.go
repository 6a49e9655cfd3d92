// Command moca-vet runs the repo's custom determinism and hot-path
// analyzers (internal/lint) over the given package patterns — a
// multichecker in the spirit of golang.org/x/tools, built on the stdlib
// type-checker so it works in this dependency-free module.
//
// Usage:
//
//	moca-vet [packages]                 # run all analyzers (default ./...)
//	moca-vet -json [packages]           # machine-readable findings + waivers
//	moca-vet -baseline lint.baseline.json [packages]
//	                                    # fail only on findings not in the baseline
//	moca-vet -baseline F -write-baseline
//	                                    # re-record the baseline from current findings
//	moca-vet -fingerprint [packages]    # only the behaviorversion check
//	moca-vet -fingerprint -update       # re-record the schema fingerprint
//
// Analyzers:
//
//	maporder         no unordered map iteration in deterministic packages
//	walltime         no wall-clock/global-rand/env reads in the sim core
//	hotalloc         no closures, fmt, or boxing in //moca:hotpath funcs
//	behaviorversion  cache-visible schema changes bump sim.BehaviorVersion
//	lockhold         no blocking operations while a mutex is held
//	ctxflow          serving code must thread caller contexts into blocking work
//	wiredispatch     exhaustive frame dispatch, full fuzz seeds, bounds before alloc
//	goroleak         serving goroutines are WaitGroup-tracked or annotated
//
// Exit status is 1 when any analyzer reports a finding outside the
// baseline. The -json document lists every finding (baselined ones
// flagged) plus every honored `//moca:` waiver with its reason, so
// accepted debt stays visible.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"moca/internal/lint"
)

func main() { os.Exit(run()) }

func run() int {
	fingerprint := flag.Bool("fingerprint", false,
		"run only the behaviorversion fingerprint check")
	update := flag.Bool("update", false,
		"with -fingerprint: re-record the checked-in schema fingerprint")
	jsonOut := flag.Bool("json", false,
		"emit findings and honored waivers as a JSON document on stdout")
	baselinePath := flag.String("baseline", "",
		"fail only on findings not recorded in this baseline file")
	writeBaseline := flag.Bool("write-baseline", false,
		"with -baseline: re-record the baseline from the current findings")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: moca-vet [-json] [-baseline file [-write-baseline]] [-fingerprint [-update]] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *update && !*fingerprint {
		fmt.Fprintln(os.Stderr, "moca-vet: -update requires -fingerprint")
		return 2
	}
	if *writeBaseline && *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "moca-vet: -write-baseline requires -baseline")
		return 2
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "moca-vet:", err)
		return 2
	}

	if *fingerprint {
		return runFingerprint(pkgs, *update)
	}

	findings, waivers, err := lint.RunAnalyzers(pkgs, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "moca-vet:", err)
		return 2
	}

	matched := make([]bool, len(findings))
	fresh := findings
	if *baselinePath != "" {
		if *writeBaseline {
			rel := make([]lint.Finding, len(findings))
			copy(rel, findings)
			for i := range rel {
				rel[i].Position.Filename = relPath(rel[i].Position.Filename)
			}
			if err := lint.WriteBaseline(*baselinePath, rel); err != nil {
				fmt.Fprintln(os.Stderr, "moca-vet:", err)
				return 2
			}
			fmt.Printf("moca-vet: recorded %d finding(s) in %s\n", len(rel), *baselinePath)
			return 0
		}
		b, err := lint.LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "moca-vet:", err)
			return 2
		}
		var stale []lint.BaselineEntry
		matched, fresh, stale = b.Filter(findings)
		for _, e := range stale {
			fmt.Fprintf(os.Stderr,
				"moca-vet: stale baseline entry (no matching finding): %s: %s: %s\n",
				e.File, e.Analyzer, e.Message)
		}
	}

	if *jsonOut {
		if err := emitJSON(os.Stdout, findings, matched, waivers); err != nil {
			fmt.Fprintln(os.Stderr, "moca-vet:", err)
			return 2
		}
	} else {
		for i, f := range findings {
			if matched[i] {
				fmt.Printf("%s (baselined)\n", f)
				continue
			}
			fmt.Println(f)
		}
	}
	if len(fresh) > 0 {
		fmt.Fprintf(os.Stderr, "moca-vet: %d finding(s)\n", len(fresh))
		return 1
	}
	return 0
}

// vetJSON is the -json document: every finding (baselined ones flagged so
// accepted debt stays visible) plus every honored waiver with its reason.
type vetJSON struct {
	Findings []vetFinding `json:"findings"`
	Waivers  []vetWaiver  `json:"waivers"`
}

type vetFinding struct {
	Analyzer  string `json:"analyzer"`
	Package   string `json:"package"`
	File      string `json:"file"`
	Line      int    `json:"line"`
	Col       int    `json:"col"`
	Message   string `json:"message"`
	Fix       string `json:"fix,omitempty"`
	Baselined bool   `json:"baselined,omitempty"`
}

type vetWaiver struct {
	Analyzer  string `json:"analyzer"`
	Package   string `json:"package"`
	Directive string `json:"directive"`
	Reason    string `json:"reason"`
	File      string `json:"file"`
	Line      int    `json:"line"`
}

func emitJSON(w *os.File, findings []lint.Finding, matched []bool, waivers []lint.Waiver) error {
	doc := vetJSON{Findings: []vetFinding{}, Waivers: []vetWaiver{}}
	for i, f := range findings {
		doc.Findings = append(doc.Findings, vetFinding{
			Analyzer:  f.Analyzer,
			Package:   f.Package,
			File:      relPath(f.Position.Filename),
			Line:      f.Position.Line,
			Col:       f.Position.Column,
			Message:   f.Message,
			Fix:       f.Fix,
			Baselined: matched[i],
		})
	}
	for _, wv := range waivers {
		doc.Waivers = append(doc.Waivers, vetWaiver{
			Analyzer:  wv.Analyzer,
			Package:   wv.Package,
			Directive: wv.Directive,
			Reason:    wv.Reason,
			File:      relPath(wv.Position.Filename),
			Line:      wv.Position.Line,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&doc)
}

// relPath renders a finding path relative to the working directory when it
// lies beneath it, keeping -json output and baselines machine-portable.
func relPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(wd, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return filepath.ToSlash(rel)
}

// runFingerprint checks (or, with update, re-records) the schema
// fingerprint of every loaded package that declares a behavior-versioned
// schema (a Result type plus a BehaviorVersion constant).
func runFingerprint(pkgs []*lint.Package, update bool) int {
	checked := 0
	bad := 0
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		if scope.Lookup("Result") == nil || scope.Lookup("BehaviorVersion") == nil {
			continue
		}
		checked++
		fp, err := lint.ComputeFingerprint(pkg.Types, pkg.ModulePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "moca-vet:", err)
			return 2
		}
		path := filepath.Join(pkg.Dir, lint.FingerprintRelPath)
		if update {
			if err := lint.UpdateFingerprintFile(fp, path); err != nil {
				fmt.Fprintln(os.Stderr, "moca-vet:", err)
				return 2
			}
			fmt.Printf("moca-vet: recorded %s (behavior_version %d, schema %s)\n",
				path, fp.Version, fp.Hash()[:12])
			continue
		}
		for _, d := range lint.CheckFingerprintFile(fp, path) {
			bad++
			fmt.Printf("%s: behaviorversion: %s\n", pkg.ImportPath, d.Message)
			if d.Fix != "" {
				fmt.Printf("\tfix: %s\n", d.Fix)
			}
		}
	}
	if checked == 0 {
		fmt.Fprintln(os.Stderr, "moca-vet: no behavior-versioned package in the given patterns")
		return 2
	}
	if bad > 0 {
		return 1
	}
	return 0
}
