package dataset

import (
	"bufio"
	"io"
)

// CSV codecs for the three datasets. Formats are stable, with a header row,
// RFC 3339 timestamps, and full float precision, so generated datasets can
// be archived and re-analyzed without the simulator. Each format's columns
// are its section layout table (layout.go): the header is the entries' CSV
// names in table order, and every field's text form comes from its codec.
//
// The writer streams: each row is rendered into one reused []byte scratch
// with the strconv.Append* / time.AppendFormat family and flushed through a
// bufio.Writer, so writing n rows costs O(1) allocations, not O(n)
// (TestWriteCSVAllocs pins this). The readers live in decode.go: a
// chunk-parallel streaming scanner that parses straight into columnar
// buffers, bit-identical to a serial parse at every worker count.

// appendCSVString appends a string field, quoting per RFC 4180 only when
// it contains a comma, quote or line break (generated vocabularies never
// do; quoting keeps arbitrary round-tripped records safe). The byte loop
// beats strings.ContainsAny on the short fields a row is made of.
func appendCSVString(b []byte, s string) []byte {
	quote := false
	for i := 0; i < len(s) && !quote; i++ {
		quote = s[i] == ',' || s[i] == '"' || s[i] == '\r' || s[i] == '\n'
	}
	if !quote {
		return append(b, s...)
	}
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			b = append(b, '"')
		}
		b = append(b, s[i])
	}
	return append(b, '"')
}

// writeCSV writes the header and then every row of c, one field per table
// entry.
func (l *layout[S, R]) writeCSV(w io.Writer, c *S) error {
	n, err := l.rowCount(c)
	if err != nil {
		return err
	}
	texts := make([]func([]byte, any, int) []byte, len(l.cols))
	cols := make([]any, len(l.cols))
	bw := bufio.NewWriterSize(w, 1<<16)
	row := make([]byte, 0, 256)
	for j, f := range l.cols {
		texts[j], cols[j] = f.csvText(c)
		row = append(appendCSVString(row, f.csvName()), ',')
	}
	for i := 0; ; i++ {
		row[len(row)-1] = '\n'
		if _, err := bw.Write(row); err != nil {
			return err
		}
		if i == n {
			return bw.Flush()
		}
		row = row[:0]
		for j, text := range texts {
			row = append(text(row, cols[j], i), ',')
		}
	}
}

// WriteOoklaCSV writes c to w in the speedctx Ookla CSV format.
func WriteOoklaCSV(w io.Writer, c *OoklaColumns) error { return ooklaLayout.writeCSV(w, c) }

// WriteMLabCSV writes NDT rows to w.
func WriteMLabCSV(w io.Writer, c *MLabRowColumns) error { return mlabLayout.writeCSV(w, c) }

// WriteMBACSV writes MBA records to w.
func WriteMBACSV(w io.Writer, c *MBAColumns) error { return mbaLayout.writeCSV(w, c) }
