package stats

import (
	"errors"
	"fmt"
	"math"
)

// This file implements the mergeable bin-mass sketch (DESIGN.md §12): the
// linear binning of DESIGN.md §8 promoted to a first-class value that can be
// built incrementally, merged across shards and snapshot segments, persisted
// (.sxc section kind 6), and fit from directly. Every binned fast path —
// the binned KDE, weighted k-means seeding, and histogram-EM — now consumes
// a Sketch, so "fit from a merged sketch" and "fit from a single pass over
// the concatenated samples" are literally the same code over the same
// numbers.
//
// The determinism contract the ingest refresh loop is built on: a fit from
// a merged sketch is BIT-IDENTICAL to the single-pass fast fit on the same
// grid, at any shard count and any merge order. Floating-point addition is
// not associative, so per-bin masses are not accumulated as float64;
// instead each deposited sample carries a fixed-point mass of 2³² units
// split between its two bracketing bins, and bins accumulate uint64 units.
// Integer addition is associative and commutative, so any partition of the
// sample into shard sketches, merged in any order, reproduces the exact
// per-bin unit counts of one serial deposit pass — and everything computed
// downstream (float masses, KDE densities, EM fits) is a pure function of
// those counts. The quantization this costs is one part in 2³² of a single
// sample's mass per deposit, ~7 orders of magnitude below the binning
// approximation the fast paths already accept (DESIGN.md §8).

// SketchVersion tags the sketch layout and quantization scheme. Persisted
// sketches recorded under another version are stale (ErrSketchVersion /
// dataset.ErrSnapshotStale) and must be rebuilt from rows, never merged.
const SketchVersion = 1

// massUnitBits is the fixed-point precision of one sample's mass: a deposit
// splits 2³² units between two adjacent bins, so the quantization error per
// sample is 2⁻³² — far below every accuracy gate in this repo.
const massUnitBits = 32

// massUnit is one sample's mass in fixed-point units.
const massUnit = uint64(1) << massUnitBits

// ErrSketchGrid is returned by Merge when the two sketches do not share a
// grid key (lo, hi, bins): masses on different grids are not comparable.
var ErrSketchGrid = errors.New("stats: sketch grid mismatch")

// ErrSketchVersion is returned when reconstructing a sketch recorded under
// a foreign SketchVersion.
var ErrSketchVersion = errors.New("stats: stale sketch version")

// Sketch is a mergeable linear binning of a one-dimensional sample onto a
// fixed grid of bins centers spanning [lo, hi]. Bin j sits at
// lo + j·(hi-lo)/(bins-1) and carries a fixed-point sample mass; linear
// binning splits each observation between its two bracketing centers in
// proportion to proximity, preserving the sample's first moment exactly
// (see linear-binning error bound, DESIGN.md §8). Samples outside [lo, hi]
// clamp to the edge bins, so a pre-declared grid (e.g. from a plan catalog)
// can absorb any measurement.
//
// A Sketch is not safe for concurrent mutation; build or merge it on one
// goroutine, then share it freely — every fit path reads it immutably.
type Sketch struct {
	lo, hi float64
	step   float64
	inv    float64 // 1/step, hoisted for the deposit loop
	count  uint64  // samples deposited (each worth massUnit units)
	mass   []uint64

	// Lazily materialized float views, invalidated by Add/Merge. The
	// derivation is deterministic (float64(units)·2⁻³² per bin), so two
	// sketches with equal masses always yield equal views.
	viewsOK bool
	w       []float64
	centers []float64
}

// NewSketch creates an empty sketch over a bins-point grid spanning
// [lo, hi]. bins must be at least 2 and hi must exceed lo; both must be
// finite.
func NewSketch(lo, hi float64, bins int) (*Sketch, error) {
	if bins < 2 {
		return nil, fmt.Errorf("stats: sketch needs >= 2 bins, got %d", bins)
	}
	if !(hi > lo) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return nil, fmt.Errorf("stats: sketch span [%v, %v] is not an increasing finite range", lo, hi)
	}
	step := (hi - lo) / float64(bins-1)
	return &Sketch{lo: lo, hi: hi, step: step, inv: 1 / step, mass: make([]uint64, bins)}, nil
}

// SketchFromSamples builds a sketch over [lo, hi] and deposits xs into it.
func SketchFromSamples(xs []float64, lo, hi float64, bins int) (*Sketch, error) {
	s, err := NewSketch(lo, hi, bins)
	if err != nil {
		return nil, err
	}
	s.Add(xs)
	return s, nil
}

// SketchFromParts reconstructs a sketch from its persisted fields (the .sxc
// section-kind-6 decoder calls this). version must equal SketchVersion; the
// mass slice is copied and validated against count, so a corrupt record
// cannot produce a sketch whose weights disagree with its sample count.
func SketchFromParts(lo, hi float64, mass []uint64, count uint64, version int) (*Sketch, error) {
	if version != SketchVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrSketchVersion, version, SketchVersion)
	}
	s, err := NewSketch(lo, hi, len(mass))
	if err != nil {
		return nil, err
	}
	var sum uint64
	for _, m := range mass {
		sum += m
	}
	if sum != count*massUnit { // both sides wrap identically on overflow
		return nil, fmt.Errorf("stats: sketch mass sum does not cover %d samples", count)
	}
	copy(s.mass, mass)
	s.count = count
	return s, nil
}

// Observe deposits one sample, splitting its fixed-point mass between the
// two bracketing bin centers. Out-of-range values clamp to the edge bins.
//
// The deposit computes the bin position directly in fixed point: one
// multiply by inv·2³² (an exact power-of-two scaling of 1/step, so the
// product rounds exactly once) and one float→int64 conversion yield an
// integer whose high bits are the bin index and whose low 32 bits are the
// truncated linear-binning fraction. That keeps the single-pass fast fits'
// O(n) term at a handful of instructions — on par with the float-mass
// binning it replaced — while the two deposits always sum to exactly
// massUnit, conserving total mass bit-for-bit. Observe and Add must use
// the exact same arithmetic: one-by-one and bulk deposits of the same
// values must yield identical masses.
func (s *Sketch) Observe(x float64) {
	s.viewsOK = false
	s.count++
	last := len(s.mass) - 1
	lastF := float64(last) * float64(massUnit)
	fpos := (x - s.lo) * (s.inv * float64(massUnit))
	// The common case passes both ordered comparisons, so the hot path pays
	// exactly two branches; NaN fails both and lands in the clamp tail. The
	// first compare also guards the int64 conversion below, whose behaviour
	// is implementation-defined for out-of-range values.
	if fpos < lastF && fpos > 0 {
		fx := int64(fpos)
		j := int(fx >> massUnitBits)
		if uint(j) >= uint(last) {
			// Unreachable given the float guards; the unsigned compare proves
			// 0 <= j < last so both deposits below are bounds-check-free.
			s.mass[last] += massUnit
			return
		}
		upper := uint64(fx) & (massUnit - 1)
		s.mass[j] += massUnit - upper
		s.mass[j+1] += upper
		return
	}
	if fpos >= lastF {
		// x >= hi (or a rounding hair past it): all mass on the last bin.
		s.mass[last] += massUnit
		return
	}
	// x <= lo, or NaN: all mass on bin 0.
	s.mass[0] += massUnit
}

// Add deposits every sample of xs. It is the bulk form of Observe with the
// grid fields hoisted out of the loop — same arithmetic, same masses, no
// per-sample call overhead.
func (s *Sketch) Add(xs []float64) {
	if len(xs) == 0 {
		return
	}
	s.viewsOK = false
	s.count += uint64(len(xs))
	mass := s.mass
	last := len(mass) - 1
	lo := s.lo
	inv32 := s.inv * float64(massUnit)
	lastF := float64(last) * float64(massUnit)
	for _, x := range xs {
		fpos := (x - lo) * inv32
		if fpos < lastF && fpos > 0 {
			fx := int64(fpos)
			j := int(fx >> massUnitBits)
			if uint(j) >= uint(last) {
				mass[last] += massUnit
				continue
			}
			upper := uint64(fx) & (massUnit - 1)
			mass[j] += massUnit - upper
			mass[j+1] += upper
			continue
		}
		if fpos >= lastF {
			mass[last] += massUnit
			continue
		}
		mass[0] += massUnit
	}
}

// SameGrid reports whether o shares this sketch's grid key: bitwise-equal
// lo and hi and the same bin count.
func (s *Sketch) SameGrid(o *Sketch) bool {
	return math.Float64bits(s.lo) == math.Float64bits(o.lo) &&
		math.Float64bits(s.hi) == math.Float64bits(o.hi) &&
		len(s.mass) == len(o.mass)
}

// Merge adds o's masses into s. The bins accumulate in ascending index
// order, but because the masses are integers the result is independent of
// merge order and of how the underlying sample was sharded — the property
// TestSketchMergeDeterminism pins. Merging a sketch with a different grid key
// returns ErrSketchGrid and leaves s unchanged.
func (s *Sketch) Merge(o *Sketch) error {
	if !s.SameGrid(o) {
		return fmt.Errorf("%w: [%v,%v]×%d vs [%v,%v]×%d",
			ErrSketchGrid, s.lo, s.hi, len(s.mass), o.lo, o.hi, len(o.mass))
	}
	s.viewsOK = false
	s.count += o.count
	for j, m := range o.mass {
		s.mass[j] += m
	}
	return nil
}

// Clone returns an independent copy (the refresh loop clones the base
// sketch before folding segment sketches in).
func (s *Sketch) Clone() *Sketch {
	c := &Sketch{lo: s.lo, hi: s.hi, step: s.step, inv: s.inv, count: s.count,
		mass: append([]uint64(nil), s.mass...)}
	return c
}

// Count reports the number of samples deposited.
func (s *Sketch) Count() int { return int(s.count) }

// Weight reports the total deposited mass, which equals the sample count
// exactly: every deposit conserves its full fixed-point mass.
func (s *Sketch) Weight() float64 { return float64(s.count) }

// Lo returns the center of bin 0.
func (s *Sketch) Lo() float64 { return s.lo }

// Hi returns the center of the last bin.
func (s *Sketch) Hi() float64 { return s.hi }

// Bins returns the grid resolution.
func (s *Sketch) Bins() int { return len(s.mass) }

// MassView returns the per-bin fixed-point masses for hashing and
// serialization. The slice is the sketch's own storage: callers must not
// mutate it.
func (s *Sketch) MassView() []uint64 { return s.mass }

// center returns the coordinate of bin j.
func (s *Sketch) center(j int) float64 { return s.lo + float64(j)*s.step }

// views materializes (once per mutation epoch) the float64 weights and bin
// centers every downstream consumer shares.
func (s *Sketch) views() (w, centers []float64) {
	if !s.viewsOK {
		if s.w == nil {
			s.w = make([]float64, len(s.mass))
			s.centers = make([]float64, len(s.mass))
			for j := range s.centers {
				s.centers[j] = s.center(j)
			}
		}
		const unitScale = 1.0 / float64(massUnit)
		for j, m := range s.mass {
			s.w[j] = float64(m) * unitScale
		}
		s.viewsOK = true
	}
	return s.w, s.centers
}

// kdeAt evaluates the binned density estimate at x for bandwidth h: the
// convolution of the bin masses with the Gaussian kernel, truncated at the
// same 6h window the exact evaluator uses. Cost is O(12h/step) bins,
// independent of the sample count. The function reads the materialized
// views only, so concurrent grid evaluation stays bit-identical at every
// parallelism level; callers must materialize views (any prior evaluation
// does) before fanning out.
func (s *Sketch) kdeAt(x, h float64) float64 {
	w, _ := s.views()
	lo := int(math.Ceil((x - 6*h - s.lo) * s.inv))
	hi := int(math.Floor((x + 6*h - s.lo) * s.inv))
	if lo < 0 {
		lo = 0
	}
	if hi > len(w)-1 {
		hi = len(w) - 1
	}
	sum := 0.0
	for j := lo; j <= hi; j++ {
		if wj := w[j]; wj != 0 {
			u := (x - s.center(j)) / h
			sum += wj * math.Exp(-0.5*u*u)
		}
	}
	return sum * invSqrt2Pi / (s.Weight() * h)
}

// Mean returns the mass-weighted mean of the bin centers. Linear binning
// preserves the sample's first moment, so up to the fixed-point
// quantization this is the sample mean.
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	w, centers := s.views()
	sum := 0.0
	for j, wj := range w {
		sum += wj * centers[j]
	}
	return sum / s.Weight()
}

// StdDev returns the mass-weighted standard deviation of the bin centers.
func (s *Sketch) StdDev() float64 {
	if s.count == 0 {
		return 0
	}
	mean := s.Mean()
	w, centers := s.views()
	sum := 0.0
	for j, wj := range w {
		d := centers[j] - mean
		sum += wj * d * d
	}
	return math.Sqrt(sum / s.Weight())
}

// Quantile returns the center of the first bin at which the cumulative
// mass reaches q of the total. It is the histogram analogue of an order
// statistic, used by the sketch bandwidth rules.
func (s *Sketch) Quantile(q float64) float64 {
	w, centers := s.views()
	target := q * s.Weight()
	cum := 0.0
	for j, wj := range w {
		cum += wj
		if cum >= target {
			return centers[j]
		}
	}
	return s.hi
}

// bandwidth computes the KDE bandwidth rule over the sketch's mass
// distribution: the same Silverman/Scott formulas as for a raw sample, with
// the moment and quantiles read from the bin masses instead of raw order
// statistics. A pure function of the sketch content, so merged and
// single-pass sketches always agree.
func (s *Sketch) bandwidth(rule BandwidthRule) float64 {
	return bandwidthRule(rule, s.Count(), s.StdDev,
		func() float64 { return s.Quantile(0.75) - s.Quantile(0.25) })
}

// massBounds returns the indices of the first and last non-empty bins, or
// ok=false for an empty sketch. The KDE grid and peak sweeps span the
// occupied range, mirroring the sample-min/max span of the exact path.
func (s *Sketch) massBounds() (lo, hi int, ok bool) {
	lo, hi = -1, -1
	for j, m := range s.mass {
		if m != 0 {
			if lo < 0 {
				lo = j
			}
			hi = j
		}
	}
	return lo, hi, lo >= 0
}
