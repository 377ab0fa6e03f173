package experiments

import (
	"fmt"
	"os"
	"strings"

	"speedctx/internal/core"
	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
	"speedctx/internal/plans"
	"speedctx/internal/tilequery"
)

// ClusterSnapshot writes the quadkey-clustered zoned sibling of a .sxc
// snapshot: Ookla columns permuted into ascending cluster-key order and
// re-encoded as a format-v3 zoned file at `<path minus .sxc>.z<zoom>.sxc`,
// written atomically so a concurrent reader never sees a torn sibling.
// The sibling holds the same row multiset, so every order-independent
// consumer (the tile fold) reads it interchangeably; order-dependent ones
// (the fit pass) must keep reading the original. Returns the sibling path.
func ClusterSnapshot(path string, zoom, blockRows int) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	snap, err := dataset.DecodeCitySnapshot(data)
	if err != nil {
		return "", err
	}
	opts := opendata.NewZoneOptions(zoom, blockRows)
	if snap.Ookla != nil {
		snap.Ookla = dataset.ClusterOoklaColumns(snap.Ookla, opts.Quadkey)
	}
	buf, err := dataset.EncodeCitySnapshotZoned(snap, opts)
	if err != nil {
		return "", err
	}
	out := strings.TrimSuffix(path, ".sxc") + fmt.Sprintf(".z%d.sxc", opts.Zoom)
	return out, dataset.WriteFileAtomic(out, buf)
}

// fitSampleSelection is the two-column projection the streamed fit pass
// reads: just the <download, upload> pairs the BST consumes.
var fitSampleSelection = dataset.SnapshotSelection{
	Ookla: dataset.Cols(dataset.OoklaColDownload, dataset.OoklaColUpload),
}

// tileSnapshotSelection is the pruned projection the tile fold pass
// reads: five of the sixteen Ookla columns, no other sections. The fit
// pass reads fitSampleSelection instead.
var tileSnapshotSelection = dataset.SnapshotSelection{
	Ookla: dataset.Cols(
		dataset.OoklaColUserID, dataset.OoklaColAccess,
		dataset.OoklaColDownload, dataset.OoklaColUpload,
		dataset.OoklaColLatency,
	),
}

// StreamTileIndex builds a city's tile index straight from .sxc snapshot
// files without ever materializing the city's columns (DESIGN.md §14).
// Two bounded-memory passes:
//
//  1. Stream <download, upload> from fitPath to collect the fit samples,
//     fit the BST under cfg, and wrap the result in a classifier. fitPath
//     must hold the rows in canonical (unclustered) order, because
//     core.Fit is sample-order-dependent.
//  2. Stream the five tile columns from scanPath — fitPath itself, or its
//     quadkey-clustered zoned sibling (see ClusterSnapshot); each batch's
//     rows are classified one by one (ClassifyOne ≡ the batch fit's
//     assignments) and folded straight into the integer-exact
//     accumulators. A non-nil rng is pushed into this scan as a zone
//     predicate (DESIGN.md §15), so groups outside it are skipped by seek.
//
// Because accumulation is a pure function of the row multiset and
// ClassifyOne is bit-identical to Fit's per-sample assignment, the index
// renders tiles byte-identical to Suite.TileRows + Aggregate over the
// generated city — at every batchRows (<= 0 selects the default); with
// rng set, that holds for tiles inside rng, since skipped groups hold only
// rows placed outside it. The returned counters describe the second
// (tile-column) pass.
func StreamTileIndex(fitPath, scanPath, cityID string, cfg core.Config, batchRows int, tqcfg tilequery.Config, rng *opendata.TileRange) (*tilequery.Index, dataset.DecodeCounters, error) {
	var ctr dataset.DecodeCounters
	cat, ok := plans.ByCity(cityID)
	if !ok {
		return nil, ctr, fmt.Errorf("experiments: unknown city %q", cityID)
	}

	// Pass 1: fit samples. Two float64 columns is the floor the exact fit
	// needs resident; everything else stays on disk.
	src, err := dataset.OpenFileSource(fitPath)
	if err != nil {
		return nil, ctr, err
	}
	sc, err := dataset.NewBlockScanner(src, fitSampleSelection, batchRows)
	if err != nil {
		src.Close()
		return nil, ctr, err
	}
	var samples []core.Sample
	saw := false
	for sc.Scan() {
		b := sc.Batch()
		if b.Kind != dataset.SectionOokla {
			continue
		}
		saw = true
		for i := 0; i < b.Rows; i++ {
			samples = append(samples, core.Sample{
				Download: b.Ookla.Download[i], Upload: b.Ookla.Upload[i],
			})
		}
	}
	scanErr := sc.Err()
	src.Close()
	if scanErr != nil {
		return nil, ctr, scanErr
	}
	if !saw {
		return nil, ctr, fmt.Errorf("experiments: snapshot %s carries no Ookla section", fitPath)
	}
	res, err := core.Fit(samples, cat, cfg)
	if err != nil {
		return nil, ctr, err
	}
	cl := core.NewClassifier(res)

	// Pass 2: tile columns, classified and folded batch by batch, with the
	// predicate (if any) seeking past zone-mapped groups that cannot match.
	src, err = dataset.OpenFileSource(scanPath)
	if err != nil {
		return nil, ctr, err
	}
	defer src.Close()
	sel := tileSnapshotSelection
	sel.Predicate = tqcfg.Pushdown(rng)
	sc, err = dataset.NewBlockScanner(src, sel, batchRows)
	if err != nil {
		return nil, ctr, err
	}
	ix := tilequery.NewIndex(tqcfg)
	var tiers []int
	for sc.Scan() {
		b := sc.Batch()
		if b.Kind != dataset.SectionOokla || b.Rows == 0 {
			continue
		}
		o := b.Ookla
		if cap(tiers) < b.Rows {
			tiers = make([]int, b.Rows)
		}
		tiers = tiers[:b.Rows]
		for i := 0; i < b.Rows; i++ {
			tiers[i] = cl.ClassifyOne(o.Download[i], o.Upload[i]).Tier
		}
		if _, err := ix.AddRows(&tilequery.Rows{
			UserID: o.UserID, Download: o.Download, Upload: o.Upload,
			Latency: o.Latency, Tier: tiers, Access: o.Access,
		}); err != nil {
			return nil, ctr, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, ctr, err
	}
	return ix, sc.Counters(), nil
}
