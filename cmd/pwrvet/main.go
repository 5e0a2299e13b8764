// Command pwrvet runs the repository's domain-specific static-analysis
// suite (internal/lint) over the module: the floating-point, panic-path,
// error-handling, log-base and benchmark-clock invariants that the
// point-wise relative error guarantee depends on, plus the flow-sensitive
// checks built on the per-function CFG/dataflow engine — intnarrow
// (truncating conversions and over-wide shifts in the bit-level codecs),
// decodebound (taint: input-derived lengths must be range-guarded before
// indexing, sizing an allocation, or bounding a loop), goroleak
// (WaitGroup pairing and channel close-on-all-paths), allochot
// (per-iteration allocation in hot codec loops), encdecpair
// (Encode/Compress API symmetry), and ctxflow (worker-pool goroutines
// whose channel sends select on neither a cancellation receive nor a
// default, so the pool cannot be torn down) — and the interprocedural
// summary layer: limitreach (decode-entry-tainted allocation sizes must
// pass a DecodeLimits/range guard on every call path), wrapreach
// (narrowing conversions of unvalidated decoder input across call
// boundaries), boundconst (raw log2(1+b) error bounds reaching quantizer
// sinks without the Lemma-2 tightening), and purity (package-level writes
// in worker-pool-reachable functions).
//
// Usage:
//
//	pwrvet [flags] [dir ...]
//
// Each dir (default ".") is a directory inside the module; the whole
// module is always analyzed, and when directories are given only the
// findings whose file lives under one of them are reported. Exit status
// is 0 when clean, 1 when there are unsuppressed findings, 2 on usage or
// load errors.
//
// With -json, findings are emitted as NDJSON: one JSON object per line
// with the check name, position, message, and (for interprocedural
// findings) the witness call chain.
//
// With -baseline file, findings matching an entry of the NDJSON baseline
// (same check, file, and message; line numbers are ignored so unrelated
// edits do not invalidate it) are accepted and do not affect the exit
// status. Regenerate the baseline with: pwrvet -json > file.
//
// With -stats, per-check wall times are printed after the summary (as
// NDJSON records carrying a "stat" key with -json).
//
// Findings are suppressed inline with:
//
//	//lint:allow <check>[,<check>...] <one-line justification>
//
// on the offending line or the line above.
package main

import (
	"bufio"
	"encoding/json"
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
		jsonOut  = fs.Bool("json", false, "emit findings as NDJSON (one object per line)")
		baseline = fs.String("baseline", "", "NDJSON file of accepted findings (matched by check+file+message)")
		checks   = fs.String("checks", "", "comma-separated checks to run (default: all)")
		disable  = fs.String("disable", "", "comma-separated checks to skip")
		list     = fs.Bool("list", false, "list available checks and exit")
		quiet    = fs.Bool("q", false, "suppress the summary line")
		stats    = fs.Bool("stats", false, "print per-check wall time (NDJSON records with -json)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: pwrvet [flags] [dir ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := lint.AllChecks()
	if *list {
		for _, c := range all {
			fmt.Fprintf(stdout, "%-12s %s\n", c.Name(), c.Doc())
		}
		return 0
	}

	selected, err := selectChecks(all, *checks, *disable)
	if err != nil {
		fmt.Fprintln(stderr, "pwrvet:", err)
		return 2
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
	findings, suppressed, times := mod.RunTimed(selected)

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

	baselined := 0
	if *baseline != "" {
		accepted, err := loadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "pwrvet:", err)
			return 2
		}
		kept := findings[:0]
		for _, f := range findings {
			if accepted[baselineKey(f)] {
				baselined++
				continue
			}
			kept = append(kept, f)
		}
		findings = kept
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout) // no indent: one object per line
		for _, f := range findings {
			if err := enc.Encode(f); err != nil {
				fmt.Fprintln(stderr, "pwrvet:", err)
				return 2
			}
		}
		if *stats {
			// The "stat" key distinguishes these records from findings,
			// so regenerated baselines that include them stay loadable.
			for _, t := range times {
				rec := statTime{Stat: "check_time", Name: t.Name, WallMS: float64(t.Wall) / 1e6}
				if err := enc.Encode(rec); err != nil {
					fmt.Fprintln(stderr, "pwrvet:", err)
					return 2
				}
			}
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
			for _, hop := range f.Chain {
				fmt.Fprintf(stdout, "\tvia %s\n", hop)
			}
		}
		if !*quiet {
			fmt.Fprintf(stdout, "pwrvet: %d finding(s), %d suppressed, %d baselined, %d check(s) over %d package(s)\n",
				len(findings), suppressed, baselined, len(selected), len(mod.Packages))
		}
		if *stats {
			for _, t := range times {
				fmt.Fprintf(stdout, "pwrvet: %-12s %8.1fms\n", t.Name, float64(t.Wall)/1e6)
			}
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// statTime is the -stats NDJSON record; the "stat" field keeps it
// distinguishable from findings.
type statTime struct {
	Stat   string  `json:"stat"`
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
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

// baselineKey identifies a finding for baseline matching: the line and
// column are deliberately excluded so edits elsewhere in the file do not
// invalidate accepted findings.
func baselineKey(f lint.Finding) string {
	return f.Check + "\x00" + f.File + "\x00" + f.Message
}

// loadBaseline reads an NDJSON findings file (as written by -json). Blank
// lines and lines starting with '#' are ignored.
func loadBaseline(path string) (map[string]bool, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = fh.Close() }() // read-only file; close error carries nothing
	accepted := map[string]bool{}
	sc := bufio.NewScanner(fh)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var f lint.Finding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, lineNo, err)
		}
		if f.Check == "" || f.Message == "" {
			// Not a finding — e.g. a -stats record captured when the
			// baseline was regenerated from a -json -stats run.
			continue
		}
		accepted[baselineKey(f)] = true
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return accepted, nil
}

// selectChecks applies -checks / -disable to the registered set.
func selectChecks(all []lint.Check, enable, disable string) ([]lint.Check, error) {
	byName := map[string]lint.Check{}
	for _, c := range all {
		byName[c.Name()] = c
	}
	var out []lint.Check
	if enable != "" {
		for _, name := range strings.Split(enable, ",") {
			name = strings.TrimSpace(name)
			c, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("unknown check %q (try -list)", name)
			}
			out = append(out, c)
		}
	} else {
		out = all
	}
	if disable != "" {
		skip := map[string]bool{}
		for _, name := range strings.Split(disable, ",") {
			name = strings.TrimSpace(name)
			if _, ok := byName[name]; !ok {
				return nil, fmt.Errorf("unknown check %q (try -list)", name)
			}
			skip[name] = true
		}
		var kept []lint.Check
		for _, c := range out {
			if !skip[c.Name()] {
				kept = append(kept, c)
			}
		}
		out = kept
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no checks selected")
	}
	return out, nil
}
