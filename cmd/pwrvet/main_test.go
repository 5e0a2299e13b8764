package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint"
)

func TestFilterDirs(t *testing.T) {
	root := t.TempDir()
	sub := filepath.Join(root, "internal", "lint")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	findings := []lint.Finding{
		{Check: "c", File: filepath.Join("internal", "lint", "a.go"), Message: "in"},
		{Check: "c", File: filepath.Join("cmd", "pwrvet", "b.go"), Message: "out"},
	}

	kept, err := filterDirs(append([]lint.Finding(nil), findings...), root, []string{sub})
	if err != nil {
		t.Fatalf("filterDirs: %v", err)
	}
	if len(kept) != 1 || kept[0].Message != "in" {
		t.Errorf("dir filter kept %v, want only the internal/lint finding", kept)
	}

	all, err := filterDirs(append([]lint.Finding(nil), findings...), root, []string{root})
	if err != nil {
		t.Fatalf("filterDirs: %v", err)
	}
	if len(all) != 2 {
		t.Errorf("module-root dir filtered findings: got %d, want 2", len(all))
	}
}
