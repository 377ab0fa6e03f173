package main

import (
	"fmt"
	"strconv"
	"time"

	"speedctx/internal/core"
	"speedctx/internal/dataset"
	"speedctx/internal/experiments"
	"speedctx/internal/ingest"
)

// generator makes the ingest and tiles workloads' rows. Synthetic
// subscribers replay each city's Ookla samples in a fixed interleave of
// cities A-D, so the rows carry the paper's tier structure rather than
// uniform noise. Row j is a pure function of (seed, j): user id, latency
// and the starting point in each city's sample pool come from a
// counter-based hash, never from a sequential RNG.
type generator struct {
	suite       *experiments.Suite
	seed        uint64
	cities      []string
	pools       [][]core.Sample
	offsets     []int
	classifiers map[string]*core.Classifier
	users       int // distinct subscribers per city
}

// genScale is the dataset scale of the model fits and sample pools (the
// `speedctx load` default): big enough for stable per-city fits, small
// enough that fitting four cities is set-up, not workload.
const genScale = 0.002

// newGenerator fits the four city models the server classifies against.
// This is the program work of every ingest-path fixture: dataset
// generation at genScale plus the fast BST fit per city. Traced, it spans
// each city's generation (Suite.City) and fit (Suite.CityClassifier).
func newGenerator(seed int64, users int, t *tracer) (*generator, error) {
	s := experiments.NewSuite(genScale, 2021+seed%1000)
	s.FastFit = true
	g := &generator{
		suite:       s,
		seed:        mix(uint64(seed)),
		cities:      experiments.CityIDs(),
		classifiers: map[string]*core.Classifier{},
		users:       users,
	}
	for i, id := range g.cities {
		sp := t.begin("experiments.city", id, 0, 0)
		b, err := s.City(id)
		sp.end()
		if err != nil {
			return nil, err
		}
		sp = t.begin("core.fit", id, 0, 0)
		cl, err := s.CityClassifier(id)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("fit city %s: %w", id, err)
		}
		pool := b.OoklaSampleView()
		g.pools = append(g.pools, pool)
		g.offsets = append(g.offsets, int(mix(g.seed+uint64(i))%uint64(len(pool))))
		g.classifiers[id] = cl
	}
	return g, nil
}

// mix is the SplitMix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

var epoch = time.Unix(1609459200, 0).UTC()

// row returns unclassified row j.
func (g *generator) row(j int) dataset.IngestRow {
	c := j % len(g.cities)
	k := j / len(g.cities)
	pool := g.pools[c]
	sm := pool[(k+g.offsets[c])%len(pool)]
	h := mix(g.seed ^ uint64(j)*0x2545f4914f6cdd1d)
	return dataset.IngestRow{
		TestID:       j,
		UserID:       int(h % uint64(g.users)),
		City:         g.cities[c],
		ISP:          "ISP-" + g.cities[c],
		Timestamp:    epoch.Add(time.Duration(j) * time.Second),
		DownloadMbps: sm.Download,
		UploadMbps:   sm.Upload,
		LatencyMs:    5 + float64((h>>32)%60000)/1000,
	}
}

// classified returns row j with the verdict the server's classifier gives
// it, exactly as the ingest handler stamps it before Submit.
func (g *generator) classified(j int) dataset.IngestRow {
	r := g.row(j)
	a := g.classifiers[r.City].ClassifyOne(r.DownloadMbps, r.UploadMbps)
	r.UploadTier, r.Tier, r.Confidence = a.UploadTier, a.Tier, a.Confidence
	return r
}

// ring is the ingest client's bounded set of pre-rendered NDJSON request
// bodies, reused cyclically so generator memory stays fixed however long
// the run. Each body carries its expected ack bytes and per-tier counts.
type ring struct {
	bodies     [][]byte
	acks       [][]byte // expected NDJSON ack of each body
	tierCounts [][]int  // plan-tier histogram of each body's rows
	rows       int      // rows per body
}

// newRing renders n bodies of rowsPer consecutive rows each.
func newRing(g *generator, n, rowsPer int) *ring {
	rg := &ring{rows: rowsPer}
	for b := 0; b < n; b++ {
		var body, ack []byte
		var tiers []int
		for j := b * rowsPer; j < (b+1)*rowsPer; j++ {
			r := g.classified(j)
			body = ingest.AppendSubmission(body, &r)
			body = append(body, '\n')
			ack = appendAck(ack, r.Tier, r.UploadTier, r.Confidence)
			for len(tiers) <= r.Tier {
				tiers = append(tiers, 0)
			}
			tiers[r.Tier]++
		}
		rg.bodies = append(rg.bodies, body)
		rg.acks = append(rg.acks, ack)
		rg.tierCounts = append(rg.tierCounts, tiers)
	}
	return rg
}

// appendAck renders one expected ack line in the ingest wire format.
func appendAck(dst []byte, tier, uploadTier int, confidence float64) []byte {
	dst = append(dst, `{"tier":`...)
	dst = strconv.AppendInt(dst, int64(tier), 10)
	dst = append(dst, `,"upload_tier":`...)
	dst = strconv.AppendInt(dst, int64(uploadTier), 10)
	dst = append(dst, `,"confidence":`...)
	dst = strconv.AppendFloat(dst, confidence, 'g', -1, 64)
	return append(dst, '}', '\n')
}
