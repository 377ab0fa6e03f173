package tilequery

import (
	"fmt"
	"io"
	"strconv"

	"speedctx/internal/opendata"
)

// Response renderers shared by the ingest server's /v1/tiles endpoint and
// the speedctx tiles subcommand. Both are hand-rolled with fixed field
// order so identical aggregates always produce identical bytes — the
// property the seal-replay and cold-vs-warm identity checks assert.

// Metrics lists the single-metric projections AppendTilesJSON accepts
// besides the empty string (full tiles).
var Metrics = []string{"download", "upload", "latency", "tests", "devices"}

// metricValue projects one tile onto a named metric.
func metricValue(t *opendata.ContextTile, metric string) (int, error) {
	switch metric {
	case "download":
		return t.AvgDKbps, nil
	case "upload":
		return t.AvgUKbps, nil
	case "latency":
		return t.AvgLatMs, nil
	case "tests":
		return t.Tests, nil
	case "devices":
		return t.Devices, nil
	}
	return 0, fmt.Errorf("tilequery: unknown metric %q", metric)
}

// CheckMetric returns an error unless metric is empty or an entry of
// Metrics.
func CheckMetric(metric string) error {
	if metric == "" {
		return nil
	}
	_, err := metricValue(&opendata.ContextTile{}, metric)
	return err
}

// AppendTilesJSON renders a tile query response appended to dst. With an
// empty metric every tile renders its full contextualized schema; with a
// named metric each tile renders as {"quadkey":...,"value":N}.
func AppendTilesJSON(dst []byte, zoom int, tiles []opendata.ContextTile, metric string) ([]byte, error) {
	if err := CheckMetric(metric); err != nil {
		return nil, err
	}
	dst = append(dst, `{"zoom":`...)
	dst = strconv.AppendInt(dst, int64(zoom), 10)
	if metric != "" {
		dst = append(dst, `,"metric":"`...)
		dst = append(dst, metric...)
		dst = append(dst, '"')
	}
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(len(tiles)), 10)
	dst = append(dst, `,"tiles":[`...)
	for i := range tiles {
		if i > 0 {
			dst = append(dst, ',')
		}
		if metric == "" {
			dst = tiles[i].AppendJSON(dst)
			continue
		}
		v, _ := metricValue(&tiles[i], metric)
		dst = append(dst, `{"quadkey":"`...)
		dst = append(dst, tiles[i].Quadkey...)
		dst = append(dst, `","value":`...)
		dst = strconv.AppendInt(dst, int64(v), 10)
		dst = append(dst, '}')
	}
	dst = append(dst, ']', '}')
	return dst, nil
}

// WriteTilesCSV writes the full contextualized CSV schema (the metric
// projection is a JSON-only convenience; CSV consumers get every column).
func WriteTilesCSV(w io.Writer, tiles []opendata.ContextTile) error {
	return opendata.WriteContextTilesCSV(w, tiles)
}
