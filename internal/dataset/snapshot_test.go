package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"speedctx/internal/plans"
)

// snapshotFixture builds a CitySnapshot from freshly generated datasets.
func snapshotFixture(t testing.TB) *CitySnapshot {
	t.Helper()
	return &CitySnapshot{
		Ookla:    ColumnizeOokla(GenerateOokla(plans.CityA(), 400, 31)),
		MLabRows: ColumnizeMLabRows(GenerateMLab(plans.CityB(), 300, 32, DefaultMLabOptions())),
		MBA:      ColumnizeMBA(GenerateMBA(plans.CityC(), 8, 200, 33)),
		Android:  ColumnizeOokla(GenerateOokla(plans.CityD(), 150, 34)),
	}
}

func encodeSnapshot(t testing.TB, snap *CitySnapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCitySnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTrip: Columns → .sxc → Columns is deeply equal for all
// four sections, including the time.Time columns (whole-second UTC
// instants round-trip to the identical internal representation).
func TestSnapshotRoundTrip(t *testing.T) {
	snap := snapshotFixture(t)
	back, err := ReadCitySnapshot(bytes.NewReader(encodeSnapshot(t, snap)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Ookla, back.Ookla) {
		t.Error("ookla columns differ after round trip")
	}
	if !reflect.DeepEqual(snap.MLabRows, back.MLabRows) {
		t.Error("mlab columns differ after round trip")
	}
	if !reflect.DeepEqual(snap.MBA, back.MBA) {
		t.Error("mba columns differ after round trip")
	}
	if !reflect.DeepEqual(snap.Android, back.Android) {
		t.Error("android columns differ after round trip")
	}
}

// TestSnapshotPartialSections: nil sections stay nil.
func TestSnapshotPartialSections(t *testing.T) {
	snap := &CitySnapshot{Ookla: ColumnizeOokla(GenerateOokla(plans.CityA(), 50, 3))}
	back, err := ReadCitySnapshot(bytes.NewReader(encodeSnapshot(t, snap)))
	if err != nil {
		t.Fatal(err)
	}
	if back.Ookla == nil || back.MLabRows != nil || back.MBA != nil || back.Android != nil {
		t.Fatalf("section presence wrong: %+v", back)
	}
}

// TestSnapshotIEEEExactFloats pins the bit-exactness promise of the float
// encoding: negative zero, denormals, infinities, NaN and extreme
// magnitudes all round-trip to identical bit patterns.
func TestSnapshotIEEEExactFloats(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, math.MaxFloat64,
		-math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1),
		math.Inf(-1), math.NaN(), 1.0000000000000002, math.Pi,
	}
	n := len(specials)
	ts := make([]time.Time, n)
	ints := make([]int, n)
	strsA := make([]string, n)
	for i := range ts {
		ts[i] = time.Date(2021, 3, 4, 5, 6, 7, 0, time.UTC).Add(time.Duration(i) * time.Hour)
		ints[i] = i * 17
		strsA[i] = "x"
	}
	c := &MBAColumns{
		Download: specials, Upload: specials, PlanDown: specials, PlanUp: specials,
		UnitID: ints, Tier: ints,
		State: strsA, ISP: strsA, CensusTract: strsA,
		Timestamp: ts,
	}
	back, err := ReadCitySnapshot(bytes.NewReader(encodeSnapshot(t, &CitySnapshot{MBA: c})))
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range [][2][]float64{
		{c.Download, back.MBA.Download}, {c.Upload, back.MBA.Upload},
		{c.PlanDown, back.MBA.PlanDown}, {c.PlanUp, back.MBA.PlanUp},
	} {
		for i := range col[0] {
			if math.Float64bits(col[0][i]) != math.Float64bits(col[1][i]) {
				t.Fatalf("float %d: %x != %x", i, math.Float64bits(col[0][i]), math.Float64bits(col[1][i]))
			}
		}
	}
}

// TestSnapshotChecksum: any flipped byte is caught.
func TestSnapshotChecksum(t *testing.T) {
	data := encodeSnapshot(t, snapshotFixture(t))
	for _, pos := range []int{0, 5, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x40
		if _, err := DecodeCitySnapshot(bad); err == nil {
			t.Errorf("flipped byte at %d: want error", pos)
		}
	}
}

// TestSnapshotTruncation: every prefix decodes to an error, never a panic.
func TestSnapshotTruncation(t *testing.T) {
	snap := &CitySnapshot{Ookla: ColumnizeOokla(GenerateOokla(plans.CityA(), 20, 4))}
	data := encodeSnapshot(t, snap)
	for n := 0; n < len(data); n++ {
		if _, err := DecodeCitySnapshot(data[:n]); err == nil {
			t.Fatalf("prefix of %d bytes decoded without error", n)
		}
	}
}

// TestSnapshotStaleVersion: a snapshot recorded under another data version
// decodes to ErrSnapshotStale even though its checksum is intact.
func TestSnapshotStaleVersion(t *testing.T) {
	snap := snapshotFixture(t)
	data, err := encodeCitySnapshot(snap, DataVersion+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCitySnapshot(data); !errors.Is(err, ErrSnapshotStale) {
		t.Fatalf("want ErrSnapshotStale, got %v", err)
	}
}

// TestSnapshotSubsecondTimestamps: a column with any sub-second timestamp
// switches to nanosecond precision and round-trips exactly (the MBA
// generator's step division produces such stamps; the CSV format truncates
// them, the snapshot must not).
func TestSnapshotSubsecondTimestamps(t *testing.T) {
	c := ColumnizeOokla(GenerateOokla(plans.CityA(), 5, 6))
	c.Timestamp[2] = c.Timestamp[2].Add(time.Millisecond)
	c.Timestamp[4] = c.Timestamp[4].Add(434782608 * time.Nanosecond)
	back, err := ReadCitySnapshot(bytes.NewReader(encodeSnapshot(t, &CitySnapshot{Ookla: c})))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Timestamp, back.Ookla.Timestamp) {
		t.Fatalf("sub-second timestamps did not round-trip:\n%v\n%v", c.Timestamp, back.Ookla.Timestamp)
	}
}

// TestSnapshotRaggedColumns: mismatched column lengths are an encode
// error, not a corrupt file.
func TestSnapshotRaggedColumns(t *testing.T) {
	c := ColumnizeOokla(GenerateOokla(plans.CityA(), 5, 6))
	c.Upload = c.Upload[:3]
	var buf bytes.Buffer
	if err := WriteCitySnapshot(&buf, &CitySnapshot{Ookla: c}); err == nil {
		t.Fatal("ragged columns should fail to encode")
	}
}

// TestSnapshotStore covers the store: save/load round trip, key-addressed
// misses, corruption fallback as a load error, atomic write (no temp
// litter), and the data version baked into the filename.
func TestSnapshotStore(t *testing.T) {
	dir := t.TempDir()
	st := &SnapshotStore{Dir: filepath.Join(dir, "snaps")}
	key := SnapshotKey{City: "A", Seed: 2021, Scale: 0.02}

	if _, err := st.Load(key); err == nil {
		t.Fatal("load of absent key should error")
	}
	snap := snapshotFixture(t)
	if err := st.Save(key, snap); err != nil {
		t.Fatal(err)
	}
	back, err := st.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Ookla, back.Ookla) || !reflect.DeepEqual(snap.MBA, back.MBA) {
		t.Error("store round trip differs")
	}
	// A different key misses.
	if _, err := st.Load(SnapshotKey{City: "A", Seed: 2021, Scale: 0.03}); err == nil {
		t.Error("different scale should miss")
	}
	if _, err := st.Load(SnapshotKey{City: "B", Seed: 2021, Scale: 0.02}); err == nil {
		t.Error("different city should miss")
	}
	// The filename carries the data version (cache invalidation by bump).
	if p := st.Path(key); !strings.Contains(filepath.Base(p), "_v2.sxc") {
		t.Errorf("path %q does not embed the data version", p)
	}
	// No temp litter after saves.
	entries, err := os.ReadDir(st.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("store dir has %d entries, want 1", len(entries))
	}
	// Corruption surfaces as a load error (callers regenerate).
	if err := os.WriteFile(st.Path(key), []byte("SXC1 garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(key); err == nil {
		t.Error("corrupt file should fail to load")
	}
	// Path is confined to the store dir even for hostile city IDs.
	hostile := st.Path(SnapshotKey{City: "../../etc/passwd", Seed: 1, Scale: 1})
	if filepath.Dir(hostile) != filepath.Clean(st.Dir) {
		t.Errorf("hostile city escaped store dir: %q", hostile)
	}
}

// TestWriteFileAtomicFailedRename: when the final rename fails (here the
// target is a non-empty directory), the write reports the error, removes
// its tempfile, and leaves the old target untouched; a later write over a
// regular file replaces it whole.
func TestWriteFileAtomicFailedRename(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "store.sxc")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(target, "old")
	if err := os.WriteFile(old, []byte("old bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(target, []byte("new bytes")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if got, err := os.ReadFile(old); err != nil || string(got) != "old bytes" {
		t.Fatalf("old target changed: %q, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "store.sxc" {
		t.Fatalf("failed write left %d entries behind: %v", len(entries), entries)
	}

	file := filepath.Join(dir, "seg.sxc")
	for _, want := range []string{"first, longer image", "second"} {
		if err := WriteFileAtomic(file, []byte(want)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(file); err != nil || string(got) != want {
			t.Fatalf("read back %q, %v; want %q", got, err, want)
		}
	}
}

// TestSnapshotStoreGeneratorVersionMiss pins the generator-version half of
// the store key: a valid snapshot saved under an earlier generator version
// (same data version, so the file itself decodes fine) must be a miss, so
// a warm -snapshot-dir never serves rows an older sampler drew.
func TestSnapshotStoreGeneratorVersionMiss(t *testing.T) {
	st := &SnapshotStore{Dir: t.TempDir()}
	key := SnapshotKey{City: "A", Seed: 2021, Scale: 0.02}
	if err := st.Save(key, snapshotFixture(t)); err != nil {
		t.Fatal(err)
	}
	cur := filepath.Base(st.Path(key))
	if tag := fmt.Sprintf("_g%d_v%d.sxc", GeneratorVersion, DataVersion); !strings.HasSuffix(cur, tag) {
		t.Fatalf("path %q does not embed generator and data version %q", cur, tag)
	}
	data, err := os.ReadFile(st.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCitySnapshot(data); err != nil {
		t.Fatalf("saved entry does not decode: %v", err)
	}
	old := []string{
		// The name generator version 1 saved under (no generator tag).
		"cityA_seed2021_scale0.02_v2.sxc",
		// The name of the previous version in today's scheme.
		strings.Replace(cur, fmt.Sprintf("_g%d_", GeneratorVersion), fmt.Sprintf("_g%d_", GeneratorVersion-1), 1),
	}
	for _, name := range old {
		if name == cur {
			t.Fatalf("previous-version name %q equals the current one", name)
		}
		if err := os.Rename(st.Path(key), filepath.Join(st.Dir, name)); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Load(key); err == nil {
			t.Errorf("entry saved as %q (earlier generator version) should miss", name)
		}
		if err := os.Rename(filepath.Join(st.Dir, name), st.Path(key)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Load(key); err != nil {
		t.Errorf("current entry should hit: %v", err)
	}
}

// FuzzReadCitySnapshot: arbitrary bytes must decode to an error or a
// well-formed snapshot that re-encodes cleanly — never panic or
// over-allocate.
func FuzzReadCitySnapshot(f *testing.F) {
	small := &CitySnapshot{
		Ookla: ColumnizeOokla(GenerateOokla(plans.CityA(), 8, 1)),
		MBA:   ColumnizeMBA(GenerateMBA(plans.CityC(), 2, 6, 2)),
	}
	data, err := encodeCitySnapshot(small, DataVersion)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte{})
	f.Add([]byte("SXC1"))
	trunc := append([]byte(nil), data[:len(data)/2]...)
	f.Add(trunc)
	flip := append([]byte(nil), data...)
	flip[len(flip)/3] ^= 0xff
	f.Add(flip)
	f.Fuzz(func(t *testing.T, b []byte) {
		snap, err := DecodeCitySnapshot(b)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCitySnapshot(&buf, snap); err != nil {
			t.Fatalf("decoded snapshot failed to re-encode: %v", err)
		}
		if _, err := DecodeCitySnapshot(buf.Bytes()); err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
	})
}
