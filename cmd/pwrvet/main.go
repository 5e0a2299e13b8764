// Command pwrvet runs the repository's domain-specific static-analysis
// suite (internal/lint) over the module: errdrop (discarded error
// returns), benchclock (wall-clock ordering assertions in tests),
// intnarrow (truncating conversions and over-wide shifts in the bit-level
// codecs), allochot (per-iteration allocation in hot codec loops) and
// wrapreach (narrowing conversions of unvalidated decoder input across
// call boundaries).
//
// Usage:
//
//	pwrvet [-list] [-stats] [dir ...]
//
// Each dir (default ".") is a directory inside the module; the whole
// module is always analyzed, and when directories are given only the
// findings whose file lives under one of them are reported. Exit status
// is 0 when clean, 1 when there are unsuppressed findings, 2 on usage or
// load errors.
//
// With -stats, per-check wall times are printed after the summary.
//
// Findings are suppressed inline with:
//
//	//lint:allow <check>[,<check>...] <one-line justification>
//
// on the offending line or the line above.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("pwrvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list  = fs.Bool("list", false, "list available checks and exit")
		stats = fs.Bool("stats", false, "print per-check wall time")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: pwrvet [flags] [dir ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	checks := lint.AllChecks()
	if *list {
		for _, c := range checks {
			fmt.Fprintf(stdout, "%-12s %s\n", c.Name(), c.Doc())
		}
		return 0
	}

	// Accept "./..." suffixes so the tool composes with go-tool habits.
	dirs := make([]string, 0, fs.NArg())
	for _, a := range fs.Args() {
		d := strings.TrimSuffix(a, "...")
		if d == "" {
			d = "."
		}
		dirs = append(dirs, d)
	}
	if len(dirs) == 0 {
		dirs = []string{"."}
	}

	root, err := lint.FindModuleRoot(dirs[0])
	if err != nil {
		fmt.Fprintln(stderr, "pwrvet:", err)
		return 2
	}

	mod, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(stderr, "pwrvet:", err)
		return 2
	}
	findings, suppressed, times := mod.RunTimed(checks)

	for i := range findings {
		// Report module-relative paths.
		if rel, err := filepath.Rel(root, findings[i].File); err == nil {
			findings[i].File = rel
		}
	}
	findings, err = filterDirs(findings, root, dirs)
	if err != nil {
		fmt.Fprintln(stderr, "pwrvet:", err)
		return 2
	}

	for _, f := range findings {
		fmt.Fprintln(stdout, f.String())
		for _, hop := range f.Chain {
			fmt.Fprintf(stdout, "\tvia %s\n", hop)
		}
	}
	fmt.Fprintf(stdout, "pwrvet: %d finding(s), %d suppressed, %d check(s) over %d package(s)\n",
		len(findings), suppressed, len(checks), len(mod.Packages))
	if *stats {
		for _, t := range times {
			fmt.Fprintf(stdout, "pwrvet: %-12s %8.1fms\n", t.Name, float64(t.Wall)/1e6)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// filterDirs keeps the findings whose (module-relative) file lives under
// one of the given directories. A "." directory keeps everything.
func filterDirs(findings []lint.Finding, root string, dirs []string) ([]lint.Finding, error) {
	prefixes := make([]string, 0, len(dirs))
	for _, d := range dirs {
		abs, err := filepath.Abs(d)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil {
			return nil, err
		}
		if rel == "." {
			return findings, nil
		}
		prefixes = append(prefixes, rel+string(filepath.Separator))
	}
	kept := findings[:0]
	for _, f := range findings {
		for _, p := range prefixes {
			if strings.HasPrefix(f.File, p) {
				kept = append(kept, f)
				break
			}
		}
	}
	return kept, nil
}
