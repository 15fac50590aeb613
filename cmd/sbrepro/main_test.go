package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"snowboard/internal/store"
	"snowboard/internal/triage"
)

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

func TestSbreproUsage(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/sbrepro")
	stdout, stderr, _ := runTool(t, bin, "-h")
	if !strings.Contains(stderr, "-bundle") || !strings.Contains(stderr, "-state") {
		t.Fatalf("usage text missing flags:\n%s", stderr)
	}
	if stdout != "" {
		t.Fatalf("usage leaked to stdout:\n%s", stdout)
	}
}

// TestSbreproListsStoredReports is the end-to-end smoke: a tiny snowboard
// pipeline run persists its report into an artifact store, and sbrepro
// pointed at the same store must exit 0 and list that report's digest.
func TestSbreproListsStoredReports(t *testing.T) {
	pipeline := buildTool(t, "snowboard/cmd/snowboard")
	repro := buildTool(t, "snowboard/cmd/sbrepro")
	state := t.TempDir()

	_, stderr, err := runTool(t, pipeline,
		"-seed", "1", "-fuzz", "30", "-corpus", "10", "-tests", "4", "-trials", "2",
		"-state", state, "-json", "-progress", "0")
	if err != nil {
		t.Fatalf("pipeline exit error: %v\nstderr:\n%s", err, stderr)
	}

	stdout, stderr, err := runTool(t, repro, "-state", state)
	if err != nil {
		t.Fatalf("sbrepro exit error: %v\nstderr:\n%s\nstdout:\n%s", err, stderr, stdout)
	}
	if !strings.Contains(stdout, "report artifacts in "+state) {
		t.Fatalf("stored report listing missing:\n%s", stdout)
	}
	// At least one digest line follows the header.
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) < 2 || strings.TrimSpace(lines[1]) == "" {
		t.Fatalf("no report digest listed:\n%s", stdout)
	}
}

// TestSbreproReplaysExportedBundle: a bundle file exported by snowboard
// -repro-dir replays through the same signature check as -min, and
// reproduces the signature the campaign's report recorded.
func TestSbreproReplaysExportedBundle(t *testing.T) {
	pipeline := buildTool(t, "snowboard/cmd/snowboard")
	repro := buildTool(t, "snowboard/cmd/sbrepro")
	state, out := t.TempDir(), t.TempDir()

	report, stderr, err := runTool(t, pipeline,
		"-method", "S-CH-NULL", "-seed", "3", "-fuzz", "400", "-corpus", "100", "-tests", "60", "-trials", "24",
		"-state", state, "-repro-dir", out, "-json", "-progress", "0")
	if err != nil {
		t.Fatalf("pipeline exit error: %v\nstderr:\n%s", err, stderr)
	}
	var r struct {
		Issues map[string]struct {
			Triage *struct {
				Signature string `json:"signature"`
			}
		}
	}
	if err := json.Unmarshal([]byte(report), &r); err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for id, rec := range r.Issues {
		if rec.Triage == nil {
			continue
		}
		n, err := strconv.Atoi(id)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(out, fmt.Sprintf("issue-%02d.sbrb", n))
		stdout, stderr, err := runTool(t, repro, "-bundle", path, "-quiet")
		if err != nil {
			t.Fatalf("replay %s: %v\nstderr:\n%s", path, err, stderr)
		}
		if want := "signature: " + rec.Triage.Signature + "\n"; !strings.Contains(stdout, want) {
			t.Fatalf("replay %s does not print %q:\n%s", path, want, stdout)
		}
		replayed++
	}
	if replayed == 0 {
		t.Fatal("campaign triaged no findings; nothing was exported")
	}
}

// TestClassifyExit pins the documented exit-code mapping: format-version
// mismatches are stale (3), undecodable artifacts are corrupt (4), and
// everything else — missing files, bad digests — is usage (2).
func TestClassifyExit(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"triage stale", fmt.Errorf("bundle: %w", triage.ErrStale), exitStaleBundle},
		{"triage corrupt", fmt.Errorf("bundle: %w", triage.ErrCorrupt), exitCorruptBundle},
		{"store corrupt", fmt.Errorf("get: %w", store.ErrCorrupt), exitCorruptBundle},
		{"missing file", fs.ErrNotExist, exitUsage},
		{"other", errors.New("boom"), exitUsage},
	}
	for _, tc := range cases {
		if got := classifyExit(tc.err); got != tc.want {
			t.Errorf("%s: classifyExit = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// writeFileBundle drops raw bytes where loadBundleFile will read them.
func writeFileBundle(t *testing.T, data string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "bundle.json")
	if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReplayBundleStaleVsCorrupt drives the file-bundle path (-bundle and
// positional files, decoded as SBRB) through each failure class and
// asserts the error classifies to the right exit code with
// distinguishable errors.Is identities.
func TestReplayBundleStaleVsCorrupt(t *testing.T) {
	cases := []struct {
		name     string
		data     string
		wantExit int
		wantIs   error
	}{
		{"garbage", "not json", exitCorruptBundle, triage.ErrCorrupt},
		{"no format field", `{"version":"5.12-rc3"}`, exitStaleBundle, triage.ErrStale},
		{"future format", `{"format":99,"version":"5.12-rc3"}`, exitStaleBundle, triage.ErrStale},
		{"right format, invalid body", `{"format":1}`, exitCorruptBundle, triage.ErrCorrupt},
	}
	for _, tc := range cases {
		_, err := loadBundleFile(writeFileBundle(t, tc.data))
		if err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		if !errors.Is(err, tc.wantIs) {
			t.Errorf("%s: error %v is not %v", tc.name, err, tc.wantIs)
		}
		if got := classifyExit(err); got != tc.wantExit {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.wantExit)
		}
	}
	// A missing file is a usage error, not a corrupt bundle.
	_, err := loadBundleFile(filepath.Join(t.TempDir(), "nope.json"))
	if err == nil || classifyExit(err) != exitUsage {
		t.Fatalf("missing file: err=%v exit=%d, want usage", err, classifyExit(err))
	}
}

// TestSbreproOldJSONBundleIsCorrupt: a bundle file in the retired JSON
// repro-bundle shape (format 1, no kernel and no crash signature), as
// older snowboard -repro-dir runs wrote it, is rejected as corrupt (exit
// 4) and never replayed.
func TestSbreproOldJSONBundleIsCorrupt(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/sbrepro")
	stdout, stderr, err := runTool(t, bin, "-bundle", filepath.Join("testdata", "old-json-bundle.json"), "-quiet")
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != exitCorruptBundle {
		t.Fatalf("old JSON bundle: err=%v, want exit %d\nstderr:\n%s", err, exitCorruptBundle, stderr)
	}
	if !strings.Contains(stderr, "corrupt bundle") {
		t.Fatalf("stderr does not classify the bundle as corrupt:\n%s", stderr)
	}
	if stdout != "" {
		t.Fatalf("a rejected bundle printed a replay:\n%s", stdout)
	}
}

// TestLoadMinBundleStaleVsCorrupt covers the -min store path: SBRB bundles
// written under other format versions are stale; damaged payloads are
// corrupt. (The artifacts are planted directly in the store, bypassing
// triage.SaveBundle's validation, exactly like an old or damaged fleet
// member would leave them.)
func TestLoadMinBundleStaleVsCorrupt(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	put := func(data string) store.Digest {
		d, err := s.Put(store.KindRepro, []byte(data))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cases := []struct {
		name   string
		data   string
		wantIs error
		exit   int
	}{
		{"garbage", "not a bundle", triage.ErrCorrupt, exitCorruptBundle},
		{"pre-format writer", `{"kernel":"5.12-rc3"}`, triage.ErrStale, exitStaleBundle},
		{"future format", `{"format":2}`, triage.ErrStale, exitStaleBundle},
		{"right format, invalid body", `{"format":1}`, triage.ErrCorrupt, exitCorruptBundle},
	}
	for _, tc := range cases {
		d := put(tc.data)
		_, err := triage.LoadBundle(s, d)
		if err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		if !errors.Is(err, tc.wantIs) {
			t.Errorf("%s: error %v is not %v", tc.name, err, tc.wantIs)
		}
		if got := classifyExit(err); got != tc.exit {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.exit)
		}
	}
}

// TestReplayMinUsagePaths: no match and ambiguous digest prefixes are
// usage errors (2), never reported as stale or corrupt.
func TestReplayMinUsagePaths(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if replayMin(dir, "deadbeef", true) != exitUsage {
		t.Fatal("no-match prefix should be a usage error")
	}
	d1, err := s.Put(store.KindRepro, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.Put(store.KindRepro, []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	common := ""
	for i := 0; i < len(d1.String()); i++ {
		if d1.String()[i] != d2.String()[i] {
			break
		}
		common = d1.String()[:i+1]
	}
	if common == "" {
		t.Skip("digests share no common prefix to make ambiguous")
	}
	if replayMin(dir, common, true) != exitUsage {
		t.Fatal("ambiguous prefix should be a usage error")
	}
}
