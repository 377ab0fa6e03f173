package core

import (
	"reflect"
	"testing"

	"speedctx/internal/plans"
)

// TestFitParallelMatchesSerial pins the pipeline-wide determinism contract:
// the complete BST Result — stage-1 peaks and model, every stage-2 stage,
// and every per-sample assignment — is bit-identical at every Parallelism
// setting, because each stage reduces its partial results in fixed chunk
// order. The sample count exceeds the assignment chunk size so the merge
// path is genuinely multi-chunk.
func TestFitParallelMatchesSerial(t *testing.T) {
	cat := plans.CityA()
	weights := []float64{0.2, 0.2, 0.1, 0.15, 0.15, 0.2}
	samples, _ := synthTiered(cat, 2*assignChunk+777, 9, weights)

	fit := func(p int) *Result {
		res, err := Fit(samples, cat, Config{Parallelism: p})
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", p, err)
		}
		return res
	}
	serial := fit(1)
	for _, p := range []int{0, 2, 4, 16} {
		got := fit(p)
		if !reflect.DeepEqual(got.Upload, serial.Upload) {
			t.Fatalf("Parallelism=%d: stage-1 result differs from serial", p)
		}
		if !reflect.DeepEqual(got.Downloads, serial.Downloads) {
			t.Fatalf("Parallelism=%d: stage-2 results differ from serial", p)
		}
		if !reflect.DeepEqual(got.Assignments, serial.Assignments) {
			t.Fatalf("Parallelism=%d: assignments differ from serial", p)
		}
	}
}

// TestFitGMMKnobInheritance checks that the pipeline knob drives the EM
// worker count: Fit derives the GMM's Parallelism from Config.Parallelism,
// replacing a value the caller set on the GMM. (Both runs must agree
// exactly regardless — that is the point of the determinism contract.)
func TestFitGMMKnobInheritance(t *testing.T) {
	cat := plans.CityA()
	weights := []float64{0.3, 0.2, 0.1, 0.1, 0.1, 0.2}
	samples, _ := synthTiered(cat, 3000, 4, weights)

	a, err := Fit(samples, cat, Config{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Parallelism: 4}
	cfg.GMM.Parallelism = 1
	b, err := Fit(samples, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Assignments, b.Assignments) {
		t.Error("explicit GMM parallelism changed results; determinism contract broken")
	}
}
