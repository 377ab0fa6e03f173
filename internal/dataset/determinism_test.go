package dataset

import (
	"io"
	"reflect"
	"testing"

	"speedctx/internal/plans"
)

// The generators define their output as each subscriber's rows concatenated
// in user-ID order, truncated to the requested size (see generate.go).
// These tests pin the three consequences of that definition: worker count,
// shard size and requested size can never change which rows come out.

func TestGenerateOoklaParallelismInvariance(t *testing.T) {
	cat := plans.CityA()
	want := GenerateOoklaPar(cat, 3000, 11, 1)
	for _, par := range []int{4, 0} {
		got := GenerateOoklaPar(cat, 3000, 11, par)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("par=%d output differs from serial", par)
		}
	}
}

func TestGenerateMLabParallelismInvariance(t *testing.T) {
	cat := plans.CityB()
	want := GenerateMLabPar(cat, 2000, 12, DefaultMLabOptions(), 1)
	for _, par := range []int{4, 0} {
		got := GenerateMLabPar(cat, 2000, 12, DefaultMLabOptions(), par)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("par=%d output differs from serial", par)
		}
	}
}

func TestGenerateMBAParallelismInvariance(t *testing.T) {
	cat := plans.CityC()
	want := GenerateMBAPar(cat, 13, 2500, 13, 1)
	for _, par := range []int{4, 0} {
		got := GenerateMBAPar(cat, 13, 2500, 13, par)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("par=%d output differs from serial", par)
		}
	}
}

func TestGenerateShardSizeInvariance(t *testing.T) {
	// Shard size is a scheduling knob, never a semantic one. Sweep it —
	// including a degenerate one-subscriber shard — and demand identical
	// output. Serializes on the package-level genShardSubs; must not run
	// in parallel with other generation tests (none use t.Parallel).
	cat := plans.CityA()
	defer func(old int) { genShardSubs = old }(genShardSubs)
	genShardSubs = 256
	wantOokla := GenerateOoklaPar(cat, 1500, 21, 0)
	wantMLab := GenerateMLabPar(cat, 900, 22, DefaultMLabOptions(), 0)
	for _, size := range []int{1, 7, 64, 1024} {
		genShardSubs = size
		if got := GenerateOoklaPar(cat, 1500, 21, 0); !reflect.DeepEqual(got, wantOokla) {
			t.Fatalf("genShardSubs=%d changed Ookla output", size)
		}
		if got := GenerateMLabPar(cat, 900, 22, DefaultMLabOptions(), 0); !reflect.DeepEqual(got, wantMLab) {
			t.Fatalf("genShardSubs=%d changed M-Lab output", size)
		}
	}
}

func TestGenerateOoklaPrefixProperty(t *testing.T) {
	// Asking for fewer rows returns a prefix of asking for more: the
	// subscriber-order definition means n only truncates.
	cat := plans.CityD()
	small := GenerateOokla(cat, 500, 31)
	big := GenerateOokla(cat, 1000, 31)
	if len(small) != 500 || len(big) != 1000 {
		t.Fatalf("sizes %d, %d", len(small), len(big))
	}
	if !reflect.DeepEqual(small, big[:500]) {
		t.Fatal("n=500 output is not a prefix of n=1000")
	}
}

func TestColumnizeOokla(t *testing.T) {
	cat := plans.CityA()
	recs := GenerateOokla(cat, 800, 41)
	c := ColumnizeOokla(recs)
	if c.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(recs))
	}
	for i := range recs {
		r := &recs[i]
		if c.Download[i] != r.DownloadMbps || c.Upload[i] != r.UploadMbps ||
			c.UserID[i] != r.UserID || c.TruthTier[i] != r.TruthTier ||
			c.Platform[i] != r.Platform || c.Access[i] != r.Access ||
			c.HasRadioInfo[i] != r.HasRadioInfo || c.Band[i] != r.Band ||
			c.RSSI[i] != r.RSSI || c.KernelMemMB[i] != r.KernelMemMB ||
			c.MaxTheoretical[i] != r.MaxTheoreticalMbps ||
			c.Latency[i] != r.LatencyMs || !c.Timestamp[i].Equal(r.Timestamp) {
			t.Fatalf("column mismatch at row %d", i)
		}
	}
}

func TestColumnizeMLabAndMBA(t *testing.T) {
	cat := plans.CityB()
	tests := Associate(GenerateMLab(cat, 600, 42, DefaultMLabOptions()))
	mc := ColumnizeMLab(tests)
	if mc.Len() != len(tests) {
		t.Fatalf("mlab Len = %d, want %d", mc.Len(), len(tests))
	}
	for i := range tests {
		if mc.Download[i] != tests[i].DownloadMbps || mc.Upload[i] != tests[i].UploadMbps ||
			mc.MinRTT[i] != tests[i].MinRTTMs || mc.TruthTier[i] != tests[i].TruthTier {
			t.Fatalf("mlab column mismatch at row %d", i)
		}
	}
	mba := GenerateMBA(cat, 9, 700, 43)
	bc := ColumnizeMBA(mba)
	if bc.Len() != len(mba) {
		t.Fatalf("mba Len = %d, want %d", bc.Len(), len(mba))
	}
	for i := range mba {
		if bc.Download[i] != mba[i].DownloadMbps || bc.Upload[i] != mba[i].UploadMbps ||
			bc.UnitID[i] != mba[i].UnitID || bc.Tier[i] != mba[i].Tier ||
			bc.PlanDown[i] != float64(mba[i].PlanDown) || bc.PlanUp[i] != float64(mba[i].PlanUp) {
			t.Fatalf("mba column mismatch at row %d", i)
		}
	}
}

func TestWriteCSVAllocs(t *testing.T) {
	// The writers render rows into one reused scratch buffer; writing n
	// rows must cost O(1) allocations (the bufio.Writer + scratch), not
	// O(n). Discard-writer keeps io out of the measurement.
	cat := plans.CityA()
	recs := ColumnizeOokla(GenerateOokla(cat, 400, 51))
	rows := ColumnizeMLabRows(GenerateMLab(cat, 200, 52, DefaultMLabOptions()))
	mba := ColumnizeMBA(GenerateMBA(cat, 5, 300, 53))
	check := func(name string, write func() error) {
		t.Helper()
		avg := testing.AllocsPerRun(5, func() {
			if err := write(); err != nil {
				t.Fatal(err)
			}
		})
		// newRowBuf allocates the bufio.Writer and scratch; a handful of
		// header/infrastructure allocations are fine, one per row is not.
		if avg > 16 {
			t.Errorf("%s: %v allocs per write, want O(1)", name, avg)
		}
	}
	check("ookla", func() error { return WriteOoklaCSV(io.Discard, recs) })
	check("mlab", func() error { return WriteMLabCSV(io.Discard, rows) })
	check("mba", func() error { return WriteMBACSV(io.Discard, mba) })
}
