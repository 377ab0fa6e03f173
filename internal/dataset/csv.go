package dataset

import (
	"bufio"
	"io"
	"strconv"
	"strings"
	"time"

	"speedctx/internal/device"
)

// CSV codecs for the three datasets. Formats are stable, with a header row,
// RFC 3339 timestamps, and full float precision, so generated datasets can
// be archived and re-analyzed without the simulator.
//
// The writers stream: each row is rendered into one reused []byte scratch
// with the strconv.Append* / time.AppendFormat family and flushed through a
// bufio.Writer, so writing n rows costs O(1) allocations, not O(n)
// (TestWriteCSVAllocs pins this). The readers live in decode.go: a
// chunk-parallel streaming scanner that parses straight into columnar
// buffers, bit-identical to a serial parse at every worker count.

var ooklaHeader = []string{
	"test_id", "user_id", "city", "isp", "timestamp", "platform", "access",
	"has_radio_info", "band", "rssi", "max_theoretical_mbps", "kernel_mem_mb",
	"download_mbps", "upload_mbps", "latency_ms", "truth_tier",
}

// rowBuf renders CSV rows into a reused scratch buffer. Fields are
// appended with a trailing comma; endRow turns the last comma into a
// newline and flushes the row.
type rowBuf struct {
	w   *bufio.Writer
	buf []byte
}

func newRowBuf(w io.Writer) *rowBuf {
	return &rowBuf{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 256)}
}

// str appends a string field, quoting per RFC 4180 only when it contains a
// comma, quote or line break (generated vocabularies never do; quoting
// keeps arbitrary round-tripped records safe).
func (b *rowBuf) str(s string) {
	if strings.ContainsAny(s, ",\"\r\n") {
		b.buf = append(b.buf, '"')
		for i := 0; i < len(s); i++ {
			if s[i] == '"' {
				b.buf = append(b.buf, '"')
			}
			b.buf = append(b.buf, s[i])
		}
		b.buf = append(b.buf, '"', ',')
		return
	}
	b.buf = append(b.buf, s...)
	b.buf = append(b.buf, ',')
}

func (b *rowBuf) int(v int) {
	b.buf = strconv.AppendInt(b.buf, int64(v), 10)
	b.buf = append(b.buf, ',')
}

func (b *rowBuf) float(v float64) {
	b.buf = strconv.AppendFloat(b.buf, v, 'g', -1, 64)
	b.buf = append(b.buf, ',')
}

func (b *rowBuf) bool(v bool) {
	b.buf = strconv.AppendBool(b.buf, v)
	b.buf = append(b.buf, ',')
}

func (b *rowBuf) time(t time.Time) {
	b.buf = t.AppendFormat(b.buf, time.RFC3339)
	b.buf = append(b.buf, ',')
}

// endRow terminates the pending row and writes it out.
func (b *rowBuf) endRow() error {
	if n := len(b.buf); n > 0 && b.buf[n-1] == ',' {
		b.buf[n-1] = '\n'
	}
	_, err := b.w.Write(b.buf)
	b.buf = b.buf[:0]
	return err
}

// header writes a header row.
func (b *rowBuf) header(fields []string) error {
	for _, f := range fields {
		b.str(f)
	}
	return b.endRow()
}

func (b *rowBuf) flush() error { return b.w.Flush() }

// WriteOoklaCSV writes records to w in the speedctx Ookla CSV format.
func WriteOoklaCSV(w io.Writer, recs []OoklaRecord) error {
	b := newRowBuf(w)
	if err := b.header(ooklaHeader); err != nil {
		return err
	}
	for i := range recs {
		r := &recs[i]
		b.int(r.TestID)
		b.int(r.UserID)
		b.str(r.City)
		b.str(r.ISP)
		b.time(r.Timestamp)
		b.str(r.Platform.String())
		b.str(string(r.Access))
		b.bool(r.HasRadioInfo)
		if r.HasRadioInfo {
			b.str(r.Band.String())
		} else {
			b.str("")
		}
		b.float(r.RSSI)
		b.float(r.MaxTheoreticalMbps)
		b.int(r.KernelMemMB)
		b.float(r.DownloadMbps)
		b.float(r.UploadMbps)
		b.float(r.LatencyMs)
		b.int(r.TruthTier)
		if err := b.endRow(); err != nil {
			return err
		}
	}
	return b.flush()
}

var platformByName = func() map[string]device.Platform {
	m := map[string]device.Platform{}
	for _, p := range device.Platforms() {
		m[p.String()] = p
	}
	return m
}()

var mlabHeader = []string{
	"row_id", "client_ip", "server_ip", "city", "isp", "asn", "timestamp",
	"direction", "speed_mbps", "min_rtt_ms", "truth_tier",
}

// WriteMLabCSV writes NDT rows to w.
func WriteMLabCSV(w io.Writer, rows []MLabRow) error {
	b := newRowBuf(w)
	if err := b.header(mlabHeader); err != nil {
		return err
	}
	for i := range rows {
		r := &rows[i]
		b.int(r.RowID)
		b.str(r.ClientIP)
		b.str(r.ServerIP)
		b.str(r.City)
		b.str(r.ISP)
		b.int(r.ASN)
		b.time(r.Timestamp)
		b.str(string(r.Direction))
		b.float(r.SpeedMbps)
		b.float(r.MinRTTMs)
		b.int(r.TruthTier)
		if err := b.endRow(); err != nil {
			return err
		}
	}
	return b.flush()
}

var mbaHeader = []string{
	"unit_id", "state", "isp", "census_tract", "timestamp",
	"download_mbps", "upload_mbps", "plan_down_mbps", "plan_up_mbps", "tier",
}

// WriteMBACSV writes MBA records to w.
func WriteMBACSV(w io.Writer, recs []MBARecord) error {
	b := newRowBuf(w)
	if err := b.header(mbaHeader); err != nil {
		return err
	}
	for i := range recs {
		r := &recs[i]
		b.int(r.UnitID)
		b.str(r.State)
		b.str(r.ISP)
		b.str(r.CensusTract)
		b.time(r.Timestamp)
		b.float(r.DownloadMbps)
		b.float(r.UploadMbps)
		b.float(float64(r.PlanDown))
		b.float(float64(r.PlanUp))
		b.int(r.Tier)
		if err := b.endRow(); err != nil {
			return err
		}
	}
	return b.flush()
}
