package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRunWritesArtifactAndTable: a tiny grid produces the JSON artifact
// and a plan table, and a second identical invocation writes the same
// bytes.
func TestRunWritesArtifactAndTable(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "plan.json")
	invoke := func(path string) []byte {
		if err := run(120, 12, 6000, 3, 13,
			"1,2", "1,0.5", "lira", "blackout,query-churn",
			5000, 12, "shed", path, true); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := invoke(out)
	b := invoke(filepath.Join(dir, "plan2.json"))
	if string(a) != string(b) {
		t.Fatal("identical invocations produced different artifacts")
	}
	if len(a) == 0 || a[len(a)-1] != '\n' {
		t.Fatal("artifact empty or missing trailing newline")
	}
}

// TestRunRejectsBadFlags: parse and validation errors surface as errors.
func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(120, 12, 6000, 3, 13, "1,x", "1", "lira", "blackout",
		5000, 12, "shed", "", true); err == nil {
		t.Error("bad -capacity accepted")
	}
	if err := run(120, 12, 6000, 3, 13, "1", "1", "lira", "blackout",
		5000, 12, "meltdown", "", true); err == nil {
		t.Error("bad -slo-rung accepted")
	}
	if err := run(120, 12, 6000, 3, 13, "1", "1", "lira", "no-such-scenario",
		5000, 12, "shed", "", true); err == nil {
		t.Error("unknown scenario accepted")
	}
}
