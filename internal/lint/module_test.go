package lint

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/testutil"
)

// TestModuleIsClean is the meta-test: the real module must lint clean.
// Any new finding fails this test until fixed or explicitly annotated
// with //lint:allow, and so does a //lint:allow entry naming a check that
// suppresses nothing.
func TestModuleIsClean(t *testing.T) {
	if testutil.RaceEnabled {
		// Type-checking the whole module from source is several times
		// slower under the race detector and races are impossible here
		// (single goroutine); ci/check.sh runs pwrvet separately.
		t.Skip("skipping whole-module lint under -race")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("FindModuleRoot returned %s without go.mod: %v", root, err)
	}
	m, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule(%s): %v", root, err)
	}
	if len(m.Packages) == 0 {
		t.Fatal("no packages loaded")
	}
	checks := AllChecks()
	findings, suppressed := m.Run(checks)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Fatalf("module has %d unsuppressed lint findings (run cmd/pwrvet for details)", len(findings))
	}
	for _, a := range m.unusedAllows(checks) {
		t.Errorf("%s: //lint:allow entry suppresses nothing; delete it", a)
	}
	if suppressed == 0 {
		t.Error("expected some suppressed findings (the audited narrowing conversions are annotated)")
	}
}

// TestFindModuleRootFailsAtFilesystemRoot pins the error path.
func TestFindModuleRootFailsAtFilesystemRoot(t *testing.T) {
	if _, err := FindModuleRoot(t.TempDir()); err == nil {
		t.Fatal("want error when no go.mod exists above dir")
	}
}
