package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		why  string
		args []string
	}{
		{"empty args", nil},
		{"unknown command", []string{"bogus"}},
		{"table without id", []string{"table"}},
		{"unknown table", []string{"table", "99"}},
		{"unknown figure", []string{"figure", "zz"}},
		{"figure without id", []string{"figure"}},
		{"unknown city", []string{"bst", "-city", "Z"}},
		{"-metric with CSV output", []string{"tiles", "-format", "csv", "-metric", "download"}},
		{"unknown tiles format", []string{"tiles", "-format", "xml"}},
		{"-cluster-zoom without -snapshot-dir", []string{"tiles", "-cluster-zoom", "16"}},
		{"-bbox with three fields", []string{"tiles", "-scale", "0.002", "-bbox", "34.3,-119.8,34.5"}},
		{"-bbox with a non-number", []string{"tiles", "-scale", "0.002", "-bbox", "34.3,x,34.5,-119.6"}},
		{"-bbox of NaNs", []string{"tiles", "-scale", "0.002", "-bbox", "NaN,NaN,NaN,NaN"}},
		{"-bbox with one NaN", []string{"tiles", "-scale", "0.002", "-bbox", "34.3,NaN,34.5,-119.6"}},
		{"inverted -bbox", []string{"tiles", "-scale", "0.002", "-bbox", "34.5,-119.8,34.3,-119.6"}},
	} {
		var buf bytes.Buffer
		if err := run(tc.args, &buf); err == nil {
			t.Errorf("%s (%v) should error", tc.why, tc.args)
		}
	}
}

func TestTableCommands(t *testing.T) {
	// Small scale keeps this a smoke test; tcp/vendorgap/bbr don't need
	// a suite at all.
	out := runCLI(t, "table", "tcp")
	if !strings.Contains(out, "Mathis") {
		t.Errorf("tcp table:\n%s", out)
	}
	out = runCLI(t, "table", "vendorgap")
	if !strings.Contains(out, "Ookla/NDT") {
		t.Errorf("vendorgap table:\n%s", out)
	}
	out = runCLI(t, "table", "bbr")
	if !strings.Contains(out, "1-conn BBR") {
		t.Errorf("bbr table:\n%s", out)
	}
	out = runCLI(t, "table", "2", "-scale", "0.005")
	if !strings.Contains(out, "Accuracy") {
		t.Errorf("table 2:\n%s", out)
	}
}

func TestFigureCommands(t *testing.T) {
	out := runCLI(t, "figure", "4", "-scale", "0.005")
	if !strings.Contains(out, "# fig4") {
		t.Errorf("figure 4:\n%s", out)
	}
	out = runCLI(t, "figure", "8", "-scale", "0.005", "-ascii")
	if !strings.Contains(out, "alpha") {
		t.Errorf("figure 8 ascii:\n%s", out)
	}
}

func TestGenerateCommand(t *testing.T) {
	dir := t.TempDir()
	out := runCLI(t, "generate", "-city", "D", "-scale", "0.005", "-out", dir)
	for _, name := range []string{"ookla-D.csv", "mlab-D.csv", "mba-D.csv", "tiles-D.csv"} {
		path := filepath.Join(dir, name)
		if !strings.Contains(out, path) {
			t.Errorf("output missing %s:\n%s", path, out)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	// The public tile view is the tiles subcommand's fold minus context:
	// the same placement, averages and counts in the first six columns.
	written, err := os.ReadFile(filepath.Join(dir, "tiles-D.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got := csvColumns(t, string(written), 6)
	want := csvColumns(t, runCLI(t, "tiles", "-city", "D", "-scale", "0.005", "-format", "csv"), 6)
	if len(want) < 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("tiles-D.csv (%d rows) differs from `speedctx tiles -format csv` (%d rows)", len(got), len(want))
	}
}

// csvColumns parses a CSV document and keeps the first n columns of every
// record.
func csvColumns(t *testing.T, doc string, n int) [][]string {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(doc)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if len(r) < n {
			t.Fatalf("record %d has %d fields, want at least %d", i, len(r), n)
		}
		recs[i] = r[:n]
	}
	return recs
}

func TestBSTCommand(t *testing.T) {
	out := runCLI(t, "bst", "-city", "D", "-scale", "0.005")
	if !strings.Contains(out, "BST stage-1 summary") {
		t.Errorf("bst output:\n%s", out)
	}
	if !strings.Contains(out, "Final plan-tier assignment") {
		t.Errorf("bst output missing assignment table:\n%s", out)
	}
}

func TestChallengeCommandFromFile(t *testing.T) {
	dir := t.TempDir()
	runCLI(t, "generate", "-city", "A", "-scale", "0.005", "-out", dir)
	out := runCLI(t, "challenge", "-city", "A", "-input", filepath.Join(dir, "ookla-A.csv"))
	for _, want := range []string{"evidence", "meets-plan", "local-bottleneck"} {
		if !strings.Contains(out, want) {
			t.Errorf("challenge output missing %q:\n%s", want, out)
		}
	}
	// Synthetic fallback without -input.
	out = runCLI(t, "challenge", "-city", "A", "-scale", "0.005")
	if !strings.Contains(out, "Challenge evidence screen") {
		t.Errorf("synthetic challenge output:\n%s", out)
	}
	// Missing file errors.
	var buf bytes.Buffer
	if err := run([]string{"challenge", "-input", "/nonexistent.csv"}, &buf); err == nil {
		t.Error("missing input should error")
	}
}

func TestSweepCommand(t *testing.T) {
	out := runCLI(t, "table", "sweep")
	if !strings.Contains(out, "BST robustness") {
		t.Errorf("sweep output:\n%s", out)
	}
}

// TestAllOutputDeterministicAcrossParallelism is the end-to-end determinism
// gate for the parallel stats engine: the complete `all` run — every table
// and figure, fanned out across the pool and over parallel BST fits — must
// be byte-identical between a serial and a parallel invocation.
//
// The serial output is also pinned by its SHA-256. The figures print KDE
// densities at full precision, so the pin catches a change that moves
// every run the same way, which the serial-versus-parallel comparison
// cannot. The pin is recorded on linux/amd64; on other architectures,
// where the compiler may fuse multiply-adds, the test logs the hash and
// skips only the pin comparison.
func TestAllOutputDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite run; skipped in -short mode")
	}
	const wantSHA256 = "ad6449e11d41621da37161c05e0502fdeb98ff1cf16c51d9adc374fdcd7bb797"
	serial := runCLI(t, "all", "-scale", "0.005", "-par", "1")
	sum := sha256.Sum256([]byte(serial))
	if got := hex.EncodeToString(sum[:]); runtime.GOARCH != "amd64" {
		t.Logf("`all -scale 0.005` SHA-256 %s (pinned on amd64; not compared on %s)", got, runtime.GOARCH)
	} else if got != wantSHA256 {
		t.Errorf("`all -scale 0.005` SHA-256 %s, pinned %s", got, wantSHA256)
	}
	par := runCLI(t, "all", "-scale", "0.005", "-par", "8")
	if serial != par {
		t.Error("`all` output differs between -par 1 and -par 8")
	}
	if !strings.Contains(serial, "BST robustness") || !strings.Contains(serial, "# fig4") {
		t.Error("`all` output is missing expected sections")
	}
}

// TestAllSnapshotOutputIdentical is the end-to-end gate for the snapshot
// store (DESIGN.md §10): `speedctx all` must be byte-identical without a
// snapshot dir, with a cold one (generate + write) and with a warm one
// (load, skipping generation and parsing entirely).
func TestAllSnapshotOutputIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite run; skipped in -short mode")
	}
	dir := t.TempDir()
	plain := runCLI(t, "all", "-scale", "0.005")
	cold := runCLI(t, "all", "-scale", "0.005", "-snapshot-dir", dir)
	warm := runCLI(t, "all", "-scale", "0.005", "-snapshot-dir", dir)
	if plain != cold {
		t.Error("`all` output differs between no-snapshot and cold-snapshot runs")
	}
	if plain != warm {
		t.Error("`all` output differs between no-snapshot and warm-snapshot runs")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Errorf("snapshot dir has %d entries after `all`, want 4 cities", len(entries))
	}
}

// TestAllFastOutputDeterministicAcrossParallelism checks the `-fast` flag
// wiring and the shared fit cache end to end: `all -fast` must be
// byte-identical between serial and parallel runs (cache keys ignore
// parallelism). It does not show the binned fast paths' numbers: at
// -scale 0.005 the only fit of at least 4096 rows (the fast-path
// threshold) is city A's 6000-row Android slice, and `all -fast` prints
// the same bytes as `all`, so a change in the binned paths' numbers would
// pass here unseen. core.TestBSTPinned pins the fast path's bits.
func TestAllFastOutputDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite run; skipped in -short mode")
	}
	serial := runCLI(t, "all", "-scale", "0.005", "-fast", "-par", "1")
	par := runCLI(t, "all", "-scale", "0.005", "-fast", "-par", "8")
	if serial != par {
		t.Error("`all -fast` output differs between -par 1 and -par 8")
	}
	if !strings.Contains(serial, "BST robustness") || !strings.Contains(serial, "# fig4") {
		t.Error("`all -fast` output is missing expected sections")
	}
}
