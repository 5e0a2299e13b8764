package lint

import (
	"strings"
	"testing"
)

// runCheck loads an in-memory fixture and runs the named check over it.
func runCheck(t *testing.T, check string, files map[string]string) (findings []Finding, suppressed int) {
	t.Helper()
	m, err := LoadSources(files)
	if err != nil {
		t.Fatalf("LoadSources: %v", err)
	}
	for _, c := range AllChecks() {
		if c.Name() == check {
			return m.Run([]Check{c})
		}
	}
	t.Fatalf("no check named %q", check)
	return nil, 0
}

// wantOne asserts exactly one unsuppressed finding, on the given line, whose
// message contains substr.
func wantOne(t *testing.T, findings []Finding, line int, substr string) {
	t.Helper()
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Line != line {
		t.Errorf("finding on line %d, want %d: %v", f.Line, line, f)
	}
	if !strings.Contains(f.Message, substr) {
		t.Errorf("message %q does not contain %q", f.Message, substr)
	}
}

func wantClean(t *testing.T, findings []Finding, suppressed, wantSuppressed int) {
	t.Helper()
	if len(findings) != 0 {
		t.Fatalf("got findings, want none: %v", findings)
	}
	if suppressed != wantSuppressed {
		t.Errorf("suppressed = %d, want %d", suppressed, wantSuppressed)
	}
}

func TestErrdrop(t *testing.T) {
	findings, _ := runCheck(t, "errdrop", map[string]string{
		"a.go": `package fixture

import "os"

func Touch(path string) {
	f, err := os.Create(path)
	if err != nil {
		return
	}
	f.Close()
}
`,
	})
	wantOne(t, findings, 10, "silently discarded")
}

func TestErrdropExplicitDiscardAndExemptions(t *testing.T) {
	findings, suppressed := runCheck(t, "errdrop", map[string]string{
		"a.go": `package fixture

import (
	"bytes"
	"fmt"
	"os"
)

func Show(path string) {
	fmt.Println("opening", path) // exempt: display output
	var buf bytes.Buffer
	buf.WriteByte('x') // exempt: documented never to fail
	f, err := os.Create(path)
	if err != nil {
		return
	}
	_ = f.Close() // explicit discard is accepted
}
`,
	})
	wantClean(t, findings, suppressed, 0)
}

// The shape of writePGM before f15442a: the deferred Close of a written
// file is where its final write error surfaces, and it was dropped.
func TestErrdropDefer(t *testing.T) {
	findings, _ := runCheck(t, "errdrop", map[string]string{
		"a.go": `package fixture

import (
	"fmt"
	"os"
)

func writePGM(path string, nx, ny int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = fmt.Fprintf(f, "P5\n%d %d\n255\n", nx, ny)
	return err
}
`,
	})
	wantOne(t, findings, 13, "silently discarded")
}

// The shape of TestFigure6 before f15442a: dump times derived from live
// measured compression rates are ordered against each other, which the
// race detector's non-uniform slowdown flipped.
func TestBenchclock(t *testing.T) {
	findings, _ := runCheck(t, "benchclock", map[string]string{
		"a.go": `package fixture

import "time"

type Config struct {
	FixedRates map[string]float64
}

type Entry struct {
	Algo string
	Dump time.Duration
}

func measureRate(n int) float64 {
	start := time.Now()
	return float64(n) / time.Since(start).Seconds()
}

func Figure6(cfg Config) []Entry {
	out := make([]Entry, 0, 2)
	for _, a := range []string{"sz_t", "fpzip"} {
		rate, ok := cfg.FixedRates[a]
		if !ok {
			rate = measureRate(1 << 20)
		}
		out = append(out, Entry{Algo: a, Dump: time.Duration(1e15 / rate)})
	}
	return out
}
`,
		"a_test.go": `package fixture

import "testing"

func TestFigure6(t *testing.T) {
	res := Figure6(Config{})
	if res[0].Dump >= res[1].Dump {
		t.Fatal("sz_t must dump fastest")
	}
}
`,
	})
	wantOne(t, findings, 7, "non-uniform")
}

func TestBenchclockGuardedAndUntainted(t *testing.T) {
	findings, suppressed := runCheck(t, "benchclock", map[string]string{
		"a.go": `package fixture

import "time"

const RaceEnabled = false

type Config struct {
	FixedRates map[string]float64
}

func measure() time.Duration {
	start := time.Now()
	return time.Since(start)
}

func dumpTime(cfg Config, algo string) time.Duration {
	if r, ok := cfg.FixedRates[algo]; ok {
		return time.Duration(1e15 / r)
	}
	return measure()
}
`,
		"a_test.go": `package fixture

import (
	"testing"
	"time"
)

func TestFixedRates(t *testing.T) {
	// Injected rates make the ordering deterministic.
	cfg := Config{FixedRates: map[string]float64{"sz_t": 180e6, "fpzip": 420e6}}
	if dumpTime(cfg, "fpzip") > dumpTime(cfg, "sz_t") {
		t.Fatal("ordering flipped")
	}
}

func TestGuarded(t *testing.T) {
	if RaceEnabled {
		t.Skip("timing is skewed under the race detector")
	}
	a := measure()
	b := measure()
	if a > b {
		t.Fatal("ordering flipped")
	}
}

func TestThreshold(t *testing.T) {
	// Comparison against a constant bound is not an ordering between
	// two live measurements.
	if measure() > 10*time.Second {
		t.Fatal("way too slow")
	}
}

func TestUntainted(t *testing.T) {
	// No wall-clock taint: durations from pure arithmetic.
	a := time.Duration(3)
	b := time.Duration(5)
	if a > b {
		t.Fatal("math broke")
	}
}
`,
	})
	wantClean(t, findings, suppressed, 0)
}

func TestRunSortsAndCountsAcrossChecks(t *testing.T) {
	m, err := LoadSources(map[string]string{
		"a.go": `package fixture

import "os"

func Touch(path string, x uint64) uint32 {
	v := uint32(x)
	f, err := os.Create(path)
	if err != nil {
		return 0
	}
	f.Close()
	//lint:allow intnarrow,errdrop x>>1 < 2^32 by the caller
	return v + uint32(x>>1)
}
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	checks := AllChecks()
	findings, suppressed := m.Run(checks)
	if suppressed != 1 {
		t.Fatalf("suppressed = %d, want 1", suppressed)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(findings), findings)
	}
	if findings[0].Check != "intnarrow" || findings[1].Check != "errdrop" {
		t.Fatalf("findings not sorted by position: %v", findings)
	}
	if findings[0].Line >= findings[1].Line {
		t.Fatalf("lines out of order: %v", findings)
	}
	// The directive's errdrop entry suppresses nothing and is reported.
	if got := m.unusedAllows(checks); len(got) != 1 || got[0] != "a.go:12: errdrop" {
		t.Errorf("unusedAllows = %q, want [a.go:12: errdrop]", got)
	}
}

func TestFindingString(t *testing.T) {
	findings, _ := runCheck(t, "intnarrow", map[string]string{
		"a.go": "package fixture\n\nfunc Trunc(x uint64) uint32 { return uint32(x) }\n",
	})
	if len(findings) != 1 {
		t.Fatalf("findings: %v", findings)
	}
	s := findings[0].String()
	if !strings.HasPrefix(s, "a.go:3:") || !strings.Contains(s, "[intnarrow]") {
		t.Errorf("String() = %q", s)
	}
}
