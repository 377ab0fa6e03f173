package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
)

func testRows(n int, seed int64) []dataset.IngestRow {
	rng := rand.New(rand.NewSource(seed))
	base := time.Unix(1609459200, 0).UTC()
	rows := make([]dataset.IngestRow, n)
	for i := range rows {
		rows[i] = dataset.IngestRow{
			TestID:       i,
			UserID:       rng.Intn(n/4 + 1),
			City:         string(rune('A' + i%4)),
			ISP:          "ISP-" + string(rune('A'+i%4)),
			Timestamp:    base.Add(time.Duration(i) * time.Second),
			DownloadMbps: rng.Float64() * 1000,
			UploadMbps:   rng.Float64() * 35,
			LatencyMs:    rng.Float64() * 50,
			UploadTier:   rng.Intn(5) - 1,
			Tier:         rng.Intn(7),
			Confidence:   rng.Float64(),
		}
	}
	return rows
}

// compactBytes drains rows through a pipeline with the given shape, closes
// it, compacts, and returns the canonical snapshot bytes.
func compactBytes(t *testing.T, rows []dataset.IngestRow, cfg PipelineConfig, producers int) []byte {
	t.Helper()
	cfg.Dir = t.TempDir()
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(rows); i += producers {
				if err := p.Submit(rows[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	queued, sealed, _ := p.Stats()
	if queued != uint64(len(rows)) || sealed != uint64(len(rows)) {
		t.Fatalf("queued=%d sealed=%d, want %d rows (no drops)", queued, sealed, len(rows))
	}
	out, err := CompactWith(cfg.Dir, CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestPipelineDeterministicSnapshot is the tentpole contract: draining the
// same N rows yields a byte-identical compacted snapshot regardless of
// batch size, producer count, age flushes, or interleaving.
func TestPipelineDeterministicSnapshot(t *testing.T) {
	rows := testRows(2000, 1)
	want := compactBytes(t, rows, PipelineConfig{BatchRows: 1 << 20, MaxBatchAge: -1}, 1)
	variants := []struct {
		name      string
		cfg       PipelineConfig
		producers int
	}{
		{"batch64-producers8", PipelineConfig{BatchRows: 64, MaxBatchAge: -1}, 8},
		{"batch100-producers16", PipelineConfig{BatchRows: 100, MaxBatchAge: -1}, 16},
		{"unbounded-producers4-age1ms", PipelineConfig{BatchRows: 1 << 20, MaxBatchAge: time.Millisecond}, 4},
		{"batch33-producers8-age1ms", PipelineConfig{BatchRows: 33, MaxBatchAge: time.Millisecond}, 8},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			// Shuffle the submission order too: arrival order must not
			// leak into the snapshot.
			shuffled := append([]dataset.IngestRow(nil), rows...)
			rand.New(rand.NewSource(99)).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			got := compactBytes(t, shuffled, v.cfg, v.producers)
			if !bytes.Equal(got, want) {
				t.Fatalf("compacted snapshot differs from serial reference (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestPipelineBackpressure pins the no-drop contract: with the sealer
// parked, a Submit past a full batch blocks — it neither drops nor errors —
// and completes once the sealer takes the batch.
func TestPipelineBackpressure(t *testing.T) {
	p, err := newPipeline(PipelineConfig{Dir: t.TempDir(), BatchRows: 2, MaxBatchAge: -1})
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(3, 2)
	for i := 0; i < 2; i++ {
		if err := p.Submit(rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- p.Submit(rows[2]) }()
	select {
	case err := <-blocked:
		t.Fatalf("Submit past a full batch returned (%v); want it to block", err)
	case <-time.After(50 * time.Millisecond):
	}
	go p.sealer()
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Submit never completed after the sealer started")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if queued, sealed, segs := p.Stats(); queued != 3 || sealed != 3 || segs != 2 {
		t.Fatalf("queued=%d sealed=%d segments=%d, want 3/3/2 (backpressure must not drop)", queued, sealed, segs)
	}
}

// TestPipelineRestartKeepsSegments reopens a directory that still holds an
// earlier run's segments (a crash, or no shutdown compaction): the new run
// numbers its segments after them, so the compacted store holds both runs'
// rows, byte-identical to one run over all of them.
func TestPipelineRestartKeepsSegments(t *testing.T) {
	rows := testRows(200, 6)
	want := compactBytes(t, rows, PipelineConfig{BatchRows: 1 << 20, MaxBatchAge: -1}, 1)
	dir := t.TempDir()
	for _, run := range [][]dataset.IngestRow{rows[:100], rows[100:]} {
		p, err := NewPipeline(PipelineConfig{Dir: dir, BatchRows: 30, MaxBatchAge: -1})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range run {
			if err := p.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if names := segmentNames(t, dir); len(names) != 8 {
		t.Fatalf("%d segments on disk after two runs, want 8: %v", len(names), names)
	}
	out, err := CompactWith(dir, CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("compacted two-run store differs from one run over the same rows (%d vs %d bytes)", len(got), len(want))
	}
}

func TestPipelineSubmitAfterClose(t *testing.T) {
	p, err := NewPipeline(PipelineConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(testRows(1, 3)[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// TestPipelineSealFailureStopsAdmission: once a seal fails (its segment
// directory is gone), the next Submit returns an error wrapping both
// ErrClosed and the seal error instead of acking a row that cannot be
// sealed either, and Close reports the same seal error.
func TestPipelineSealFailureStopsAdmission(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "segments")
	p, err := NewPipeline(PipelineConfig{Dir: dir, BatchRows: 2, MaxBatchAge: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	rows := testRows(3, 5)
	for i := 0; i < 2; i++ {
		if err := p.Submit(rows[i]); err != nil {
			t.Fatalf("Submit %d before the failed seal: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		failed := p.sealErr != nil
		p.mu.Unlock()
		if failed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the seal into a removed directory never failed")
		}
		time.Sleep(time.Millisecond)
	}
	err = p.Submit(rows[2])
	if !errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), "seal segment 0") {
		t.Fatalf("Submit after the failed seal = %v, want ErrClosed wrapping the seal error", err)
	}
	closeErr := p.Close()
	if closeErr == nil || !strings.Contains(err.Error(), closeErr.Error()) {
		t.Fatalf("Close = %v, want the seal error %v", closeErr, err)
	}
	if queued, sealed, segs := p.Stats(); queued != 2 || sealed != 0 || segs != 0 {
		t.Fatalf("queued=%d sealed=%d segments=%d, want 2/0/0", queued, sealed, segs)
	}
}

// TestPipelineAgeFlush verifies a trickle seals without reaching BatchRows.
func TestPipelineAgeFlush(t *testing.T) {
	dir := t.TempDir()
	p, err := NewPipeline(PipelineConfig{
		Dir: dir, BatchRows: 1 << 20, MaxBatchAge: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Submit(testRows(1, 4)[0]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, segs := p.Stats(); segs >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the sealer never sealed the partial batch on age")
		}
		time.Sleep(time.Millisecond)
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*"+segmentSuffix))
	if err != nil || len(names) == 0 {
		t.Fatalf("no sealed segment on disk (err=%v)", err)
	}
}

// TestCompactIsIdempotent re-compacts a compacted directory and also folds
// in late segments, checking the snapshot stays canonical.
func TestCompactIsIdempotent(t *testing.T) {
	rows := testRows(300, 5)
	dir := t.TempDir()
	cfg := PipelineConfig{Dir: dir, BatchRows: 50, MaxBatchAge: -1}
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := p.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := CompactWith(dir, CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(filepath.Join(dir, CompactedName))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompactWith(dir, CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(filepath.Join(dir, CompactedName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("re-compacting a compacted directory changed the snapshot")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("compacted dir has %d entries, want just %s", len(entries), CompactedName)
	}
}

// TestSealDeterminismAndKeyMemo seals permutations of one batch whose user
// ids include negative ones and ids far past the memo's dense tables, over
// several cities. Every permutation must seal to the same bytes, and those
// bytes must equal an unmemoised clustered sort and zoned encode of the
// rows. The memo itself must return the plain derivation for every row,
// derive each table-held (city, user) once, and hold at most one table
// slot per batch row.
func TestSealDeterminismAndKeyMemo(t *testing.T) {
	rows := testRows(3000, 31)
	cities := []string{"A", "B", "C", "D", "Springfield"}
	for i := range rows {
		rows[i].City = cities[i%len(cities)]
		switch i % 7 {
		case 0:
			rows[i].UserID = -1 - i%5
		case 1:
			rows[i].UserID = 2*len(rows) + i%11
		case 2:
			rows[i].UserID = math.MaxInt - i%3
		default:
			rows[i].UserID %= 50
		}
	}

	derive := opendata.ZoneQuadkey(opendata.TileZoom)
	calls := 0
	counted := func(city string, user int) uint64 {
		calls++
		return derive(city, user)
	}
	m := &keyMemo{derive: counted, slots: len(rows)}
	held := map[[2]any]bool{}
	wantCalls := 0
	for pass := 0; pass < 2; pass++ {
		for _, r := range rows {
			if got, want := m.key(r.City, r.UserID), derive(r.City, r.UserID); got != want {
				t.Fatalf("memo key(%q, %d) = %d, want %d", r.City, r.UserID, got, want)
			}
			switch k := [2]any{r.City, r.UserID}; {
			case r.UserID < 0 || r.UserID >= len(rows):
				wantCalls++
			case !held[k]:
				held[k] = true
				wantCalls++
			}
		}
	}
	if calls != wantCalls {
		t.Fatalf("memo derived %d keys, want %d (each held pair once, every other id per call)", calls, wantCalls)
	}
	slots := 0
	for _, ck := range m.cities {
		slots += len(ck.keys)
	}
	if slots > len(rows) {
		t.Fatalf("memo tables hold %d slots for a %d-row batch", slots, len(rows))
	}
	// Cities past the first memoCities get no table.
	calls = 0
	m = &keyMemo{derive: counted, slots: 1000}
	for pass := 0; pass < 2; pass++ {
		for c := 0; c < memoCities+6; c++ {
			m.key(fmt.Sprint("city-", c), 1)
		}
	}
	if calls != memoCities+2*6 || len(m.cities) != memoCities {
		t.Fatalf("%d cities twice: %d derivations and %d tables, want %d and %d", memoCities+6, calls, len(m.cities), memoCities+2*6, memoCities)
	}

	ref := slices.Clone(rows)
	dataset.SortIngestRowsClustered(ref, derive)
	want, err := dataset.EncodeIngestSegmentZoned(dataset.ColumnizeIngest(ref), nil, opendata.NewZoneOptions(opendata.TileZoom, 0))
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPipeline(PipelineConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for perm := 0; perm < 4; perm++ {
		batch := slices.Clone(rows)
		switch perm {
		case 1:
			slices.Reverse(batch)
		case 2, 3:
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		}
		if err := p.seal(batch, perm); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(p.segmentPath(perm))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("permutation %d sealed %d bytes that differ from the unmemoised clustered encode (%d bytes)", perm, len(got), len(want))
		}
	}
}
