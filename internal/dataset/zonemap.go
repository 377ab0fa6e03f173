package dataset

// Block zone maps and predicate pushdown for .sxc snapshots (DESIGN.md
// §15). Format version 3 adds *zoned* row sections: the section's rows are
// split into fixed-size row groups, each encoded with the standard §10
// column codecs restarted per group (delta chains, dictionaries and
// timestamp flags are all per-payload state, so a group decodes exactly
// like a small section), and a checksummed zone directory ahead of the
// groups records, per group, the row count, the packed-quadkey range of
// the rows' derived tile placements, and min/max bounds for every numeric
// column. A scan carrying a ScanPredicate seeks past whole groups whose
// zone entries cannot intersect the predicate — data skipping on top of
// PR 9's column skipping.
//
// Skipping is conservative by construction: a group is dropped only when
// its recorded bounds prove no row can match, so the surviving rows are a
// superset of the matching rows and any consumer that filters results at
// query time (the tile engine's Range filter) produces bytes identical to
// a full scan. Zone bounds for integer columns are widened one ULP
// outward before storage so the int→float64 conversion can never exclude
// a true value; NaN-carrying float groups record no bounds at all.
//
// Integrity composes with the §13 selection-scoped checksum contract: the
// zone directory has its own checksum, verified before any group header
// is trusted (a corrupt zone map fails the scan — it can never redirect
// it to wrong rows), and each group's column blocks carry the usual
// per-block sums. Groups a predicate skips are outside the read set by
// construction, exactly like unselected columns.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
)

// defaultZoneBlockRows is the canonical rows-per-group of zoned sections:
// small enough that a zoom-16 neighborhood predicate isolates a sliver of
// a city, large enough that per-group block headers and codec restarts
// stay below a percent of payload.
const defaultZoneBlockRows = 4096

// defaultZoneZoom is the canonical clustering/zone-map zoom — the tile
// query layer's base aggregation zoom (opendata.TileZoom, restated here
// because dataset sits below opendata in the import order).
const defaultZoneZoom = 16

// ZoneOptions configures zoned (v3) encoding. Quadkey derives a row's
// packed tile key at Zoom from its (city, userID) — the same placement
// the tile query layer uses, injected as a function because the location
// hash lives above this package (opendata.NewZoneOptions builds the
// canonical one). The options are part of a zoned file's canonical
// identity: same rows + same options ⇒ same bytes.
type ZoneOptions struct {
	// BlockRows is the rows-per-group split (0 = defaultZoneBlockRows).
	BlockRows int
	// Zoom is the quadkey zoom zone ranges are recorded at (0 = 16).
	Zoom int
	// LocSeed is the location-derivation seed baked into Quadkey; it is
	// recorded in the zone directory so a reader can tell whether a
	// predicate's quadkey range was derived compatibly.
	LocSeed int64
	// Quadkey maps (city, userID) to the packed quadkey at Zoom.
	Quadkey func(city string, userID int) uint64
}

func (o *ZoneOptions) blockRows() int {
	if o.BlockRows <= 0 {
		return defaultZoneBlockRows
	}
	return o.BlockRows
}

func (o *ZoneOptions) zoom() int {
	if o.Zoom <= 0 {
		return defaultZoneZoom
	}
	return o.Zoom
}

func (o *ZoneOptions) validate() error {
	if o == nil || o.Quadkey == nil {
		return fmt.Errorf("dataset: zoned encoding needs a Quadkey derivation")
	}
	if z := o.zoom(); z < 1 || z > 30 {
		return fmt.Errorf("dataset: zone zoom %d outside [1, 30]", z)
	}
	return nil
}

// QuadkeyRange restricts a scan to rows whose derived tile placement can
// fall inside an inclusive packed-quadkey interval at Zoom. Zone ranges
// recorded at a different zoom are compared at the coarser common zoom
// (packed keys shift right two bits per level), which is conservative in
// both directions. LocSeed must equal the seed the file's zone maps were
// derived under; on mismatch the quadkey predicate is ignored for that
// file (safe full read), never misapplied.
type QuadkeyRange struct {
	Zoom     int
	Min, Max uint64
	LocSeed  int64
}

// NumRange restricts a scan to groups whose recorded bounds for one
// numeric column intersect [Min, Max]. Section narrows it to one section
// kind (SectionOokla, SectionIngest); 0 applies to any zoned section.
// Groups without bounds for the column (string/bool columns, NaN-bearing
// groups, v2 files) always pass.
type NumRange struct {
	Section  int
	Col      byte
	Min, Max float64
}

// ScanPredicate is the data-skipping clause of a SnapshotSelection: a
// conjunction of an optional quadkey range and numeric ranges. It only
// ever *skips* row groups whose zone maps prove a miss — rows outside the
// predicate may still be returned (callers re-filter), rows inside it are
// never dropped. v2 sections carry no zone maps and are always read whole.
type ScanPredicate struct {
	Quadkey *QuadkeyRange
	Num     []NumRange
}

// colBounds is one column's zone entry in one row group.
type colBounds struct {
	ok       bool
	min, max float64
}

// zoneGroup is one row group's decoded zone entry.
type zoneGroup struct {
	rows       int
	qmin, qmax uint64
	bounds     []colBounds // indexed by column id − 1
}

// zoneDir is a zoned section's decoded zone directory.
type zoneDir struct {
	zoom    int
	locSeed int64
	groups  []zoneGroup
}

// sectionZone ties one expanded scanSection (one row group) back to its
// zone directory and logical position.
type sectionZone struct {
	dir   *zoneDir
	gi    int  // group index
	first bool // first group of the logical section (counter attribution)
	start int  // logical row offset of the group
	total int  // logical section row count
}

// zoneDirVersion tags the zone-directory payload layout.
const zoneDirVersion = 1

// matches reports whether the predicate can possibly match rows of group
// gi, given the section's base kind. Unknown columns, absent bounds and
// NaN predicate endpoints all conservatively match.
func (z *sectionZone) matches(p *ScanPredicate, kind int) bool {
	g := &z.dir.groups[z.gi]
	if q := p.Quadkey; q != nil && q.LocSeed == z.dir.locSeed {
		pmin, pmax, gmin, gmax := q.Min, q.Max, g.qmin, g.qmax
		if q.Zoom > z.dir.zoom {
			shift := 2 * uint(q.Zoom-z.dir.zoom)
			pmin, pmax = pmin>>shift, pmax>>shift
		} else if z.dir.zoom > q.Zoom {
			shift := 2 * uint(z.dir.zoom-q.Zoom)
			gmin, gmax = gmin>>shift, gmax>>shift
		}
		if gmax < pmin || gmin > pmax {
			return false
		}
	}
	for i := range p.Num {
		nr := &p.Num[i]
		if nr.Section != 0 && nr.Section != kind {
			continue
		}
		ci := int(nr.Col) - 1
		if ci < 0 || ci >= len(g.bounds) {
			continue
		}
		b := g.bounds[ci]
		if !b.ok {
			continue
		}
		// NaN endpoints make both comparisons false — never a skip.
		if b.max < nr.Min || b.min > nr.Max {
			return false
		}
	}
	return true
}

// zoneGroupSpans splits n rows into blockRows-sized [lo, hi) spans; an
// empty section is one empty group, preserving the one-zero-row-batch
// contract.
func zoneGroupSpans(n, blockRows int) [][2]int {
	if n == 0 {
		return [][2]int{{0, 0}}
	}
	spans := make([][2]int, 0, (n+blockRows-1)/blockRows)
	for lo := 0; lo < n; lo += blockRows {
		hi := lo + blockRows
		if hi > n {
			hi = n
		}
		spans = append(spans, [2]int{lo, hi})
	}
	return spans
}

// zoneDirBuilder renders the zone-directory payload during encode.
type zoneDirBuilder struct {
	b []byte
}

func (z *zoneDirBuilder) header(opts *ZoneOptions, groups int) {
	z.b = append(z.b, zoneDirVersion, byte(opts.zoom()))
	z.b = binary.AppendVarint(z.b, opts.LocSeed)
	z.b = binary.AppendUvarint(z.b, uint64(groups))
}

func (z *zoneDirBuilder) group(rows int, keys []uint64) {
	z.b = binary.AppendUvarint(z.b, uint64(rows))
	var qmin, qmax uint64
	if len(keys) > 0 {
		qmin, qmax = keys[0], keys[0]
		for _, k := range keys[1:] {
			if k < qmin {
				qmin = k
			}
			if k > qmax {
				qmax = k
			}
		}
	}
	z.b = binary.AppendUvarint(z.b, qmin)
	z.b = binary.AppendUvarint(z.b, qmax-qmin)
}

// none records a column without zone bounds (strings, bools, enums,
// timestamps).
func (z *zoneDirBuilder) none() { z.b = append(z.b, 0) }

func (z *zoneDirBuilder) bounds(min, max float64) {
	z.b = append(z.b, 1)
	z.b = binary.LittleEndian.AppendUint64(z.b, math.Float64bits(min))
	z.b = binary.LittleEndian.AppendUint64(z.b, math.Float64bits(max))
}

// floats records exact min/max bounds; any NaN degrades the column to
// boundless (NaN orders under no interval).
func (z *zoneDirBuilder) floats(v []float64) {
	if len(v) == 0 {
		z.none()
		return
	}
	mn, mx := v[0], v[0]
	for _, x := range v[1:] {
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	if math.IsNaN(mn) || math.IsNaN(mx) {
		z.none()
		return
	}
	for _, x := range v {
		if math.IsNaN(x) {
			z.none()
			return
		}
	}
	z.bounds(mn, mx)
}

// ints records int bounds widened one ULP outward, so the int64→float64
// conversion (inexact past 2⁵³) can never exclude a true value.
func (z *zoneDirBuilder) ints(v []int) {
	if len(v) == 0 {
		z.none()
		return
	}
	mn, mx := v[0], v[0]
	for _, x := range v[1:] {
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	z.bounds(math.Nextafter(float64(mn), math.Inf(-1)), math.Nextafter(float64(mx), math.Inf(1)))
}

// parseZoneDir decodes and validates a zone-directory payload against the
// section's declared column and row counts.
func parseZoneDir(p []byte, ncols, totalRows int) (*zoneDir, error) {
	fail := func(format string, args ...any) (*zoneDir, error) {
		return nil, fmt.Errorf("zone directory: "+format, args...)
	}
	if len(p) < 2 {
		return fail("truncated header")
	}
	if p[0] != zoneDirVersion {
		return fail("unknown version %d", p[0])
	}
	zoom := int(p[1])
	if zoom < 1 || zoom > 30 {
		return fail("zoom %d outside [1, 30]", zoom)
	}
	p = p[2:]
	locSeed, w := binary.Varint(p)
	if w <= 0 {
		return fail("bad location seed")
	}
	p = p[w:]
	ngroups, w := binary.Uvarint(p)
	if w <= 0 {
		return fail("bad group count")
	}
	p = p[w:]
	// Every group costs at least 3 varint bytes + ncols presence bytes, so
	// the payload length bounds the group count before any allocation.
	if ngroups == 0 || ngroups > uint64(len(p)/(3+ncols))+1 {
		return fail("absurd group count %d", ngroups)
	}
	d := &zoneDir{zoom: zoom, locSeed: locSeed, groups: make([]zoneGroup, 0, ngroups)}
	sum := 0
	for gi := 0; gi < int(ngroups); gi++ {
		rows, w := binary.Uvarint(p)
		if w <= 0 || rows > uint64(totalRows) {
			return fail("group %d: bad row count", gi)
		}
		p = p[w:]
		qmin, w := binary.Uvarint(p)
		if w <= 0 {
			return fail("group %d: bad quadkey min", gi)
		}
		p = p[w:]
		qspan, w := binary.Uvarint(p)
		if w <= 0 || qspan > ^uint64(0)-qmin {
			return fail("group %d: bad quadkey span", gi)
		}
		p = p[w:]
		g := zoneGroup{rows: int(rows), qmin: qmin, qmax: qmin + qspan, bounds: make([]colBounds, ncols)}
		for ci := 0; ci < ncols; ci++ {
			if len(p) < 1 {
				return fail("group %d: truncated column entries", gi)
			}
			presence := p[0]
			p = p[1:]
			switch presence {
			case 0:
			case 1:
				if len(p) < 16 {
					return fail("group %d column %d: truncated bounds", gi, ci+1)
				}
				g.bounds[ci] = colBounds{
					ok:  true,
					min: math.Float64frombits(binary.LittleEndian.Uint64(p)),
					max: math.Float64frombits(binary.LittleEndian.Uint64(p[8:])),
				}
				p = p[16:]
			default:
				return fail("group %d column %d: unknown presence %d", gi, ci+1, presence)
			}
		}
		sum += g.rows
		d.groups = append(d.groups, g)
	}
	if len(p) != 0 {
		return fail("%d trailing bytes", len(p))
	}
	if sum != totalRows {
		return fail("group rows sum to %d, section has %d", sum, totalRows)
	}
	return d, nil
}

// EncodeCitySnapshotZoned renders a format-v3 file image: the Ookla and
// Ingest sections become zoned (kinds 7 and 8) under opts; every other
// section keeps its v2 layout. Same rows + same options ⇒ same bytes.
func EncodeCitySnapshotZoned(snap *CitySnapshot, opts *ZoneOptions) ([]byte, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return encodeCitySnapshotOpts(snap, DataVersion, opts)
}

// EncodeIngestSegmentZoned is EncodeIngestSegmentSketches with a zoned v3
// ingest section — the sealed-segment and clustered-compaction format.
// It feeds the zoned group writer sliced views of c, a row group at a
// time; the seal (EncodeIngestRowsZoned) and compaction
// (MergeIngestRuns) write the same bytes through the same writer without
// holding c whole.
func EncodeIngestSegmentZoned(c *IngestColumns, sketches []SketchBundle, opts *ZoneOptions) ([]byte, error) {
	return EncodeCitySnapshotZoned(&CitySnapshot{Ingest: c, Sketches: sketches}, opts)
}

// clusterEntry is one row's record in the clustered sort: its cluster
// key, then the leading fields of ingestRowLess (the city, as its rank in
// byte order, and the test id), then its position in the rows. Most
// comparisons settle on the entry alone, and the rows move once, after
// the sort, instead of on every swap.
type clusterEntry struct {
	key  uint64
	test int
	city int32
	row  int32
}

// clusterOrder sorts n rows, which at describes by position, into the
// clustered canonical order under key and returns the sorted entries:
// entry i names the row that belongs at position i. less is ingestRowLess
// over two row positions, for the ties the entry leaves. A nil key puts
// every row at key 0, which leaves the v2 order (ingestRowLess) alone,
// since that order also leads with the city and the test id.
func clusterOrder(n int, at func(i int) (city string, userID, testID int), key func(city string, userID int) uint64, less func(a, b int32) bool) []clusterEntry {
	ents := make([]clusterEntry, n)
	seen := map[string]int32{}
	var names []string
	for i := range ents {
		city, user, test := at(i)
		c, ok := seen[city]
		if !ok {
			c = int32(len(names))
			seen[city] = c
			names = append(names, city)
		}
		var k uint64
		if key != nil {
			k = key(city, user)
		}
		ents[i] = clusterEntry{key: k, test: test, city: c, row: int32(i)}
	}
	// Replace first-seen indices with byte-order ranks.
	sorted := slices.Clone(names)
	slices.Sort(sorted)
	rank := make([]int32, len(names))
	for c, name := range names {
		r, _ := slices.BinarySearch(sorted, name)
		rank[c] = int32(r)
	}
	for i := range ents {
		ents[i].city = rank[ents[i].city]
	}
	slices.SortFunc(ents, func(a, b clusterEntry) int {
		switch {
		case a.key != b.key:
			return cmp.Compare(a.key, b.key)
		case a.city != b.city:
			return cmp.Compare(a.city, b.city)
		case a.test != b.test:
			return cmp.Compare(a.test, b.test)
		case less(a.row, b.row):
			return -1
		case less(b.row, a.row):
			return 1
		}
		return 0
	})
	return ents
}

// SortIngestRowsClustered sorts rows into the clustered canonical order:
// ascending packed quadkey under key, ties broken by the full
// ingestRowLess total order. Like SortIngestRows, any permutation of the
// same row multiset sorts to the same sequence, so clustered compaction
// bytes stay a pure function of the row set (and the clustering options).
// Row positions are int32: a sort of 2^31 rows (over 250 GB of rows) is
// out of reach anyway.
func SortIngestRowsClustered(rows []IngestRow, key func(city string, userID int) uint64) {
	ents := clusterOrder(len(rows),
		func(i int) (string, int, int) { r := &rows[i]; return r.City, r.UserID, r.TestID },
		key, func(a, b int32) bool { return ingestRowLess(&rows[a], &rows[b]) })
	// Position i takes rows[ents[i].row]: follow each cycle of the
	// permutation once, marking visited entries with -1.
	for i := range ents {
		if ents[i].row < 0 {
			continue
		}
		held, j := rows[i], i
		for {
			k := int(ents[j].row)
			ents[j].row = -1
			if k == i {
				rows[j] = held
				break
			}
			rows[j] = rows[k]
			j = k
		}
	}
}

// ClusterOoklaColumns returns a copy of the columns permuted into
// ascending (cluster key, original position) order — the row order that
// makes zoned Ookla encodes skippable. The position tiebreak keeps the
// permutation stable, so a canonical input order yields a canonical
// clustered order.
func ClusterOoklaColumns(c *OoklaColumns, key func(city string, userID int) uint64) *OoklaColumns {
	keys := zoneKeys(key, c.City, c.UserID)
	perm := make([]int, len(keys))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
	return ooklaLayout.permute(c, perm)
}
