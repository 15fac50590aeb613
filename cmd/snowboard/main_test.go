package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles the command under test into a temp dir and returns
// the binary path.
func buildTool(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// runTool runs the binary with args, returning stdout, stderr, and the
// exit error (nil on status 0).
func runTool(t *testing.T, bin string, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("run %s %v: %v", bin, args, err)
		}
	}
	return stdout.String(), stderr.String(), err
}

func TestSnowboardUsage(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/snowboard")
	stdout, stderr, _ := runTool(t, bin, "-h")
	if !strings.Contains(stderr, "-seed") || !strings.Contains(stderr, "-trials") {
		t.Fatalf("usage text missing flags:\n%s", stderr)
	}
	if stdout != "" {
		t.Fatalf("usage leaked to stdout:\n%s", stdout)
	}
}

// TestReproDirRequiresState: -repro-dir exports bundles out of the
// artifact store, so without -state it is a usage error (exit 2) that
// runs nothing.
func TestReproDirRequiresState(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/snowboard")
	stdout, stderr, err := runTool(t, bin, "-repro-dir", t.TempDir(), "-progress", "0")
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("-repro-dir without -state: err=%v, want exit 2", err)
	}
	if !strings.Contains(stderr, "requires -state") || stdout != "" {
		t.Fatalf("want a usage message on stderr only; stdout:\n%s\nstderr:\n%s", stdout, stderr)
	}
}

// TestSnowboardJSONReport is the end-to-end smoke: a tiny full pipeline
// run must exit 0 and print exactly one machine-parseable JSON report on
// stdout (all chatter belongs on stderr).
func TestSnowboardJSONReport(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/snowboard")
	stdout, stderr, err := runTool(t, bin,
		"-seed", "1", "-fuzz", "30", "-corpus", "10", "-tests", "4", "-trials", "2",
		"-json", "-progress", "0")
	if err != nil {
		t.Fatalf("exit error: %v\nstderr:\n%s", err, stderr)
	}
	var report map[string]any
	if jerr := json.Unmarshal([]byte(stdout), &report); jerr != nil {
		t.Fatalf("stdout is not a single JSON document: %v\n%s", jerr, stdout)
	}
	for _, key := range []string{"CorpusSize", "DistinctPMCs", "TrialsRun"} {
		if _, ok := report[key]; !ok {
			t.Fatalf("report missing %q:\n%s", key, stdout)
		}
	}
}
