package dataset

import (
	"fmt"
	"io"
	"testing"

	"speedctx/internal/plans"
)

// Generation benchmarks back the BENCH_pr*.json perf trajectory: serial
// (p=1) against the full worker pool (p=0). On a multi-core machine the
// sharded generators scale with cores because subscribers are independent
// streams; on one core p=0 measures the sharding overhead, which must stay
// small. The small n=10000 size exists for `make bench-smoke`.

func BenchmarkGenerateOokla(b *testing.B) {
	cat := plans.CityA()
	for _, n := range []int{10000, 100000, 1000000} {
		for _, par := range []int{1, 0} {
			b.Run(fmt.Sprintf("n=%d/p=%d", n, par), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					recs := GenerateOoklaPar(cat, n, 9, par)
					if len(recs) != n {
						b.Fatalf("got %d rows", len(recs))
					}
				}
			})
		}
	}
}

func BenchmarkGenerateMLab(b *testing.B) {
	cat := plans.CityB()
	for _, par := range []int{1, 0} {
		b.Run(fmt.Sprintf("n=100000/p=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := GenerateMLabPar(cat, 100000, 9, DefaultMLabOptions(), par)
				if len(rows) == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

func BenchmarkWriteOoklaCSV(b *testing.B) {
	cat := plans.CityA()
	cols := ColumnizeOokla(GenerateOokla(cat, 20000, 9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteOoklaCSV(io.Discard, cols); err != nil {
			b.Fatal(err)
		}
	}
}
