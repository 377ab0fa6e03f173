package tilequery

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"speedctx/internal/dataset"
	"speedctx/internal/device"
	"speedctx/internal/opendata"
	"speedctx/internal/wifi"
)

// benchOokla synthesizes a fully populated Ookla column set: cheap,
// deterministic, and shaped like a generated city (string columns with
// realistic cardinality, 1000 distinct users), so decode cost is honest.
func benchOokla(n int, seed uint64) *dataset.OoklaColumns {
	c := &dataset.OoklaColumns{
		Download: make([]float64, n), Upload: make([]float64, n), Latency: make([]float64, n),
		RSSI: make([]float64, n), MaxTheoretical: make([]float64, n),
		TestID: make([]int, n), UserID: make([]int, n), TruthTier: make([]int, n),
		KernelMemMB: make([]int, n),
		City:        make([]string, n), ISP: make([]string, n),
		Platform: make([]device.Platform, n), Access: make([]dataset.AccessType, n),
		HasRadioInfo: make([]bool, n), Band: make([]wifi.Band, n),
		Timestamp: make([]time.Time, n),
	}
	isps := []string{"ISP-alpha", "ISP-beta", "ISP-gamma"}
	base := time.Unix(1_600_000_000, 0).UTC()
	for i := 0; i < n; i++ {
		h := mixT(uint64(i) ^ seed)
		c.TestID[i] = i
		c.UserID[i] = int(h % 1000)
		c.City[i] = "A"
		c.ISP[i] = isps[h%3]
		c.Timestamp[i] = base.Add(time.Duration(i) * time.Second)
		c.Platform[i] = device.Platform(h % 4)
		if h%3 == 0 {
			c.Access[i] = dataset.AccessWiFi
		} else {
			c.Access[i] = dataset.AccessEthernet
		}
		c.HasRadioInfo[i] = h%2 == 0
		c.Band[i] = wifi.Band(h % 2)
		c.RSSI[i] = -40 - float64(h%50)
		c.MaxTheoretical[i] = 100 + float64(h%900)
		c.KernelMemMB[i] = 2048 + int(h%4096)
		c.Download[i] = 1 + float64(h%900_000)/1000
		c.Upload[i] = 1 + float64(mixT(h)%100_000)/1000
		c.Latency[i] = 1 + float64(mixT(h+1)%200_000)/1000
		c.TruthTier[i] = int(h % 5)
	}
	return c
}

func benchMLabRows(n int, seed uint64) *dataset.MLabRowColumns {
	c := &dataset.MLabRowColumns{
		Speed: make([]float64, n), MinRTT: make([]float64, n),
		RowID: make([]int, n), ASN: make([]int, n), TruthTier: make([]int, n),
		ClientIP: make([]string, n), ServerIP: make([]string, n),
		City: make([]string, n), ISP: make([]string, n),
		Direction: make([]dataset.MLabDirection, n),
		Timestamp: make([]time.Time, n),
	}
	base := time.Unix(1_600_000_000, 0).UTC()
	for i := 0; i < n; i++ {
		h := mixT(uint64(i) ^ seed)
		c.Speed[i] = float64(h%500_000) / 1000
		c.MinRTT[i] = float64(h%80_000) / 1000
		c.RowID[i] = i
		c.ASN[i] = 7000 + int(h%30)
		c.TruthTier[i] = int(h % 5)
		c.ClientIP[i] = "10.0.0.1"
		c.ServerIP[i] = "192.0.2.7"
		c.City[i] = "A"
		c.ISP[i] = "ISP-alpha"
		if h%2 == 0 {
			c.Direction[i] = dataset.MLabDownload
		} else {
			c.Direction[i] = dataset.MLabUpload
		}
		c.Timestamp[i] = base.Add(time.Duration(i) * time.Second)
	}
	return c
}

func benchMBA(n int, seed uint64) *dataset.MBAColumns {
	c := &dataset.MBAColumns{
		Download: make([]float64, n), Upload: make([]float64, n),
		PlanDown: make([]float64, n), PlanUp: make([]float64, n),
		UnitID: make([]int, n), Tier: make([]int, n),
		State: make([]string, n), ISP: make([]string, n), CensusTract: make([]string, n),
		Timestamp: make([]time.Time, n),
	}
	base := time.Unix(1_600_000_000, 0).UTC()
	for i := 0; i < n; i++ {
		h := mixT(uint64(i) ^ seed)
		c.Download[i] = float64(h%900_000) / 1000
		c.Upload[i] = float64(h%100_000) / 1000
		c.PlanDown[i] = 100
		c.PlanUp[i] = 10
		c.UnitID[i] = int(h % 500)
		c.Tier[i] = int(h % 5)
		c.State[i] = "CA"
		c.ISP[i] = "ISP-alpha"
		c.CensusTract[i] = "06083001"
		c.Timestamp[i] = base.Add(time.Duration(i) * time.Second)
	}
	return c
}

// scanFixture holds the encoded 1M-row city snapshot the scan benchmarks
// decode: Ookla plus the Android/MLab/MBA sections a real city snapshot
// carries, so "skip what the query does not touch" is measured against a
// representative file.
var (
	scanOnce  sync.Once
	scanBytes []byte
	scanErr   error
)

const scanRows = 1_000_000

func benchSnapshotBytes(b *testing.B) []byte {
	scanOnce.Do(func() {
		snap := &dataset.CitySnapshot{
			Ookla:    benchOokla(scanRows, 0xA11CE),
			Android:  benchOokla(scanRows/3, 0xD801D),
			MLabRows: benchMLabRows(scanRows/3, 0x31AB),
			MBA:      benchMBA(scanRows/8, 0x38BA),
		}
		dir, err := os.MkdirTemp("", "tilequery-bench-")
		if err != nil {
			scanErr = err
			return
		}
		defer os.RemoveAll(dir)
		store := &dataset.SnapshotStore{Dir: dir}
		key := dataset.SnapshotKey{City: "A", Seed: 1, Scale: 1}
		if err := store.Save(key, snap); err != nil {
			scanErr = err
			return
		}
		scanBytes, scanErr = os.ReadFile(store.Path(key))
	})
	if scanErr != nil {
		b.Fatal(scanErr)
	}
	return scanBytes
}

// tileScanSelection is the five-column pruned projection a tile
// aggregation query declares.
var tileScanSelection = dataset.SnapshotSelection{
	Ookla: dataset.Cols(
		dataset.OoklaColUserID, dataset.OoklaColAccess,
		dataset.OoklaColDownload, dataset.OoklaColUpload,
		dataset.OoklaColLatency,
	),
}

func scanToRows(o *dataset.OoklaColumns) *Rows {
	return &Rows{
		UserID: o.UserID, Download: o.Download, Upload: o.Upload,
		Latency: o.Latency, Access: o.Access,
	}
}

// BenchmarkTileScan is the PR's headline pair: answering a zoom-16 tile
// aggregation over a 1M-row city snapshot the way it cost before this
// layer existed (decode every column of every section, then the naive
// per-row fold — see naive_test.go) versus the column-pruned scan feeding
// the memoized engine. The ratio is the recorded speedup; TestNaiveOracle
// pins both modes to identical output.
func BenchmarkTileScan(b *testing.B) {
	data := benchSnapshotBytes(b)
	cfg := Config{City: "A"}
	b.Run("n=1000000/mode=full", func(b *testing.B) {
		b.ReportAllocs()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			snap, err := dataset.DecodeCitySnapshot(data)
			if err != nil {
				b.Fatal(err)
			}
			tiles := naiveTiles(scanToRows(snap.Ookla), cfg, opendata.TileZoom)
			if len(tiles) == 0 {
				b.Fatal("no tiles")
			}
		}
		b.ReportMetric(float64(b.N*scanRows)/time.Since(start).Seconds(), "rows/s")
	})
	b.Run("n=1000000/mode=pruned", func(b *testing.B) {
		b.ReportAllocs()
		// Peak working set of the materialized path: the five decoded
		// 1M-row columns resident at once.
		peak := measurePeakBytes(func(sample func()) {
			snap, _ := wholeSection(b, data, tileScanSelection)
			sample()
			runtime.KeepAlive(snap)
		})
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			snap, ctr := wholeSection(b, data, tileScanSelection)
			if ctr.ColumnsSkipped == 0 || ctr.SectionsSkipped == 0 {
				b.Fatal("pruned scan skipped nothing")
			}
			tiles, err := Aggregate(scanToRows(snap.Ookla), cfg, Query{})
			if err != nil || len(tiles) == 0 {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*scanRows)/time.Since(start).Seconds(), "rows/s")
		b.ReportMetric(peak, "peak-bytes")
	})
	b.Run("n=1000000/mode=stream", func(b *testing.B) {
		b.ReportAllocs()
		// Peak working set of the streamed path: just the scanner's pooled
		// batch buffers, sampled mid-scan — the rows never materialize.
		peak := measurePeakBytes(func(sample func()) {
			sc, err := dataset.NewBlockScanner(dataset.BytesSource(data), tileScanSelection, 0)
			if err != nil {
				b.Fatal(err)
			}
			i := 0
			for sc.Scan() {
				if i%32 == 16 {
					sample()
				}
				i++
			}
			if err := sc.Err(); err != nil {
				b.Fatal(err)
			}
		})
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			sc, err := dataset.NewBlockScanner(dataset.BytesSource(data), tileScanSelection, 0)
			if err != nil {
				b.Fatal(err)
			}
			ix := NewIndex(cfg)
			if _, err := ix.AddScan(sc); err != nil {
				b.Fatal(err)
			}
			tiles, err := ix.Tiles(Query{})
			if err != nil || len(tiles) == 0 {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*scanRows)/time.Since(start).Seconds(), "rows/s")
		b.ReportMetric(peak, "peak-bytes")
	})
}

// measurePeakBytes runs f once outside the timed region and returns the
// largest live-heap growth it samples, for reporting as "peak-bytes"
// AFTER the timed loop — b.ResetTimer clears user-reported metrics, so
// reporting up front would silently drop the number. f receives a sample
// callback to invoke at its peak-resident moment(s); each call forces a GC
// so only genuinely live bytes count. The deltas are against a post-GC
// baseline taken before f, so the shared snapshot fixture cancels out.
func measurePeakBytes(f func(sample func())) float64 {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	peak := 0.0
	f(func() {
		runtime.GC()
		runtime.ReadMemStats(&m1)
		if d := float64(m1.HeapAlloc) - float64(m0.HeapAlloc); d > peak {
			peak = d
		}
	})
	return peak
}

// BenchmarkTileAggregate isolates the fold: one AddRows over prebuilt
// rows, then a base-zoom render. Each size builds its rows on its first
// run, so a -bench filter that skips the size skips its fixture.
func BenchmarkTileAggregate(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		var rows *Rows
		b.Run("n="+itoa(n), func(b *testing.B) {
			if rows == nil {
				rows = synthRows(n, "A", "B")
				b.ResetTimer()
			}
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				tiles, err := Aggregate(rows, Config{}, Query{})
				if err != nil || len(tiles) == 0 {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*n)/time.Since(start).Seconds(), "rows/s")
		})
	}
}

// BenchmarkTileQuery measures answering a zoom-12 roll-up query with the
// result cache cold (direct index render every time) and hot.
func BenchmarkTileQuery(b *testing.B) {
	rows := synthRows(100_000, "A", "B")
	q := Query{Zoom: 12}
	b.Run("cache=off", func(b *testing.B) {
		ix := NewIndex(Config{})
		if _, err := ix.AddRows(rows); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ix.Tiles(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cache=hot", func(b *testing.B) {
		eng := NewEngine(Config{}, 0)
		if err := eng.AddRows(rows); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Tiles(q); err != nil { // warm
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Tiles(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchZonedBytes encodes the same 1M-row Ookla city as a v3
// quadkey-clustered zoned snapshot (canonical options: zoom 16, 4096-row
// groups, default seed) — the compacted form BenchmarkTileScanPushdown
// scans with and without a bbox predicate.
var (
	zonedOnce  sync.Once
	zonedBytes []byte
	zonedErr   error
)

func benchZonedBytes(b *testing.B) []byte {
	zonedOnce.Do(func() {
		opts := opendata.NewZoneOptions(0, 0)
		snap := &dataset.CitySnapshot{
			Ookla: dataset.ClusterOoklaColumns(benchOokla(scanRows, 0xA11CE), opts.Quadkey),
		}
		zonedBytes, zonedErr = dataset.EncodeCitySnapshotZoned(snap, opts)
	})
	if zonedErr != nil {
		b.Fatal(zonedErr)
	}
	return zonedBytes
}

// neighborhoodRange is the benchmark's query shape: the single zoom-16
// tile containing one user's placement — a one-neighborhood bbox over a
// 1M-row city.
func neighborhoodRange() *opendata.TileRange {
	loc := opendata.UserLocation(opendata.CityCenter("A"), opendata.DefaultLocSeed, 42)
	x, y := opendata.LatLonToTile(loc.Lat, loc.Lon, opendata.TileZoom)
	return &opendata.TileRange{Zoom: opendata.TileZoom, MinX: x, MaxX: x, MinY: y, MaxY: y}
}

// scanTilesWithPredicate streams the zoned snapshot into a fresh index
// and renders the range query, optionally with the bbox predicate pushed
// into the scanner.
func scanTilesWithPredicate(src dataset.ScanSource, cfg Config, q Query, push bool) ([]opendata.ContextTile, dataset.DecodeCounters, error) {
	sel := tileScanSelection
	if push {
		sel.Predicate = cfg.Pushdown(q.Range)
	}
	sc, err := dataset.NewBlockScanner(src, sel, 0)
	if err != nil {
		return nil, dataset.DecodeCounters{}, err
	}
	ix := NewIndex(cfg)
	if _, err := ix.AddScan(sc); err != nil {
		return nil, sc.Counters(), err
	}
	tiles, err := ix.Tiles(q)
	return tiles, sc.Counters(), err
}

// scanFileTiles is scanTilesWithPredicate over the snapshot at path,
// opened for the one scan and closed after it, as the ingest tile server
// opens a segment per query.
func scanFileTiles(path string, cfg Config, q Query, push bool) ([]opendata.ContextTile, error) {
	src, err := dataset.OpenFileSource(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	tiles, _, err := scanTilesWithPredicate(src, cfg, q, push)
	return tiles, err
}

// BenchmarkTileScanPushdown is PR 10's headline pair: answering a
// zoom-16 single-neighborhood bbox over the clustered 1M-row city by
// streaming every row group (mode=full) versus seeking past groups whose
// quadkey zone ranges cannot intersect the bbox (mode=push). The rendered
// tiles are asserted byte-identical before timing; the rows/s ratio is
// the recorded speedup. The source=file pairs scan the same image from a
// file through bounded read windows, the way a serving scan does, so
// their B/op shows what the windows cost.
func BenchmarkTileScanPushdown(b *testing.B) {
	data := benchZonedBytes(b)
	path := filepath.Join(b.TempDir(), "zoned.sxc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	cfg := Config{City: "A"}
	q := Query{Range: neighborhoodRange()}
	want, _, err := scanTilesWithPredicate(dataset.BytesSource(data), cfg, q, false)
	if err != nil || len(want) == 0 {
		b.Fatalf("full scan: %d tiles, err %v", len(want), err)
	}
	got, ctr, err := scanTilesWithPredicate(dataset.BytesSource(data), cfg, q, true)
	if err != nil {
		b.Fatal(err)
	}
	if ctr.BlocksSkipped == 0 {
		b.Fatal("pushdown skipped no row groups")
	}
	if !reflect.DeepEqual(want, got) {
		b.Fatal("pushdown changed the rendered tiles")
	}
	for _, push := range []bool{false, true} {
		if got, err := scanFileTiles(path, cfg, q, push); err != nil || !reflect.DeepEqual(want, got) {
			b.Fatalf("file scan (push %v) changed the rendered tiles: %v", push, err)
		}
	}
	for _, mode := range []struct {
		name string
		push bool
	}{{"full", false}, {"push", true}} {
		b.Run("n=1000000/mode="+mode.name, func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				tiles, _, err := scanTilesWithPredicate(dataset.BytesSource(data), cfg, q, mode.push)
				if err != nil || len(tiles) == 0 {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*scanRows)/time.Since(start).Seconds(), "rows/s")
		})
		b.Run("n=1000000/mode="+mode.name+"/source=file", func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				tiles, err := scanFileTiles(path, cfg, q, mode.push)
				if err != nil || len(tiles) == 0 {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*scanRows)/time.Since(start).Seconds(), "rows/s")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
