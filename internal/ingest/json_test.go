package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"speedctx/internal/core"
	"speedctx/internal/dataset"
)

func TestParseSubmissionRoundTrip(t *testing.T) {
	rows := testRows(200, 7)
	for i := range rows {
		in := rows[i]
		in.UploadTier, in.Tier, in.Confidence = 0, 0, 0 // not on the wire
		wire := AppendSubmission(nil, &in)
		var got dataset.IngestRow
		if err := parseSubmission(wire, &got); err != nil {
			t.Fatalf("row %d: %v\nwire: %s", i, err, wire)
		}
		if !got.Timestamp.Equal(in.Timestamp) {
			t.Fatalf("row %d timestamp = %v, want %v", i, got.Timestamp, in.Timestamp)
		}
		got.Timestamp, in.Timestamp = time.Time{}, time.Time{}
		if got != in {
			t.Fatalf("row %d = %+v, want %+v", i, got, in)
		}
	}
}

// TestParseSubmissionAgainstEncodingJSON cross-checks the hand-rolled
// scanner against the stdlib on the same wire bytes, including escapes,
// whitespace, float forms and unknown keys.
func TestParseSubmissionAgainstEncodingJSON(t *testing.T) {
	inputs := []string{
		`{"test_id":1,"user_id":2,"city":"A","isp":"ISP-A","timestamp":1609459200000000000,"download_mbps":412.5,"upload_mbps":18.2,"latency_ms":11.3}`,
		"{ \"test_id\" : 7 ,\n\t\"user_id\": 0, \"city\":\"B\", \"isp\":\"quoted \\\"isp\\\"\",\n\"timestamp\": 5, \"download_mbps\": 1e2, \"upload_mbps\": 0.5e-1, \"latency_ms\": -0.0 }",
		`{"extra":"ignored","test_id":3,"user_id":4,"city":"Cé","isp":"a\/b","timestamp":-1,"download_mbps":100,"upload_mbps":10,"latency_ms":1,"also":null,"flag":true}`,
		`{"test_id":5,"user_id":6,"city":"😀","isp":"x","timestamp":0,"download_mbps":2.5,"upload_mbps":1.25,"latency_ms":3}`,
	}
	for i, in := range inputs {
		var got dataset.IngestRow
		if err := parseSubmission([]byte(in), &got); err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		var ref struct {
			TestID       int     `json:"test_id"`
			UserID       int     `json:"user_id"`
			City         string  `json:"city"`
			ISP          string  `json:"isp"`
			Timestamp    int64   `json:"timestamp"`
			DownloadMbps float64 `json:"download_mbps"`
			UploadMbps   float64 `json:"upload_mbps"`
			LatencyMs    float64 `json:"latency_ms"`
		}
		if err := json.Unmarshal([]byte(in), &ref); err != nil {
			t.Fatalf("input %d: stdlib: %v", i, err)
		}
		if got.TestID != ref.TestID || got.UserID != ref.UserID ||
			got.City != ref.City || got.ISP != ref.ISP ||
			got.Timestamp.UnixNano() != ref.Timestamp ||
			math.Float64bits(got.DownloadMbps) != math.Float64bits(ref.DownloadMbps) ||
			math.Float64bits(got.UploadMbps) != math.Float64bits(ref.UploadMbps) ||
			math.Float64bits(got.LatencyMs) != math.Float64bits(ref.LatencyMs) {
			t.Fatalf("input %d: scanner disagrees with stdlib:\n got %+v\n ref %+v", i, got, ref)
		}
	}
}

func TestParseSubmissionRejects(t *testing.T) {
	bad := []string{
		``,
		`{}`,
		`[1,2]`,
		`{"test_id":1}`,
		`{"test_id":1,"user_id":2,"city":"","isp":"x","timestamp":0,"download_mbps":1,"upload_mbps":1,"latency_ms":1}`,
		`{"test_id":"one","user_id":2,"city":"A","isp":"x","timestamp":0,"download_mbps":1,"upload_mbps":1,"latency_ms":1}`,
		`{"test_id":1,"user_id":2,"city":"A","isp":"x","timestamp":0,"download_mbps":1,"upload_mbps":1,"latency_ms":1}trailing`,
		`{"test_id":1,"user_id":2,"city":"A","isp":"x","timestamp":0,"download_mbps":1,"upload_mbps":1,"latency_ms":1`,
		`{"nested":{"a":1},"test_id":1,"user_id":2,"city":"A","isp":"x","timestamp":0,"download_mbps":1,"upload_mbps":1,"latency_ms":1}`,
		`{"test_id":1,"user_id":2,"city":"A","isp":"x","timestamp":0,"download_mbps":1e999,"upload_mbps":1,"latency_ms":1}`,
	}
	// Scalars follow RFC 8259 exactly: each number form below is outside
	// its grammar, whether it is a required value or an unknown key's, and
	// a string may hold neither a raw control character nor invalid UTF-8,
	// escaped or not.
	submission := `{"test_id":1,"user_id":2,"city":"A","isp":%s,"timestamp":0,"download_mbps":%s,"upload_mbps":1,"latency_ms":1%s}`
	for _, num := range []string{`+1`, `01`, `-01`, `1.`, `.5`, `-`, `--`, `1e`, `1e+`, `1.e2`, `0x10`, `1_0`, `Infinity`, `NaN`} {
		bad = append(bad,
			fmt.Sprintf(submission, `"x"`, num, ``),
			fmt.Sprintf(submission, `"x"`, `1`, `,"extra":`+num))
	}
	for _, str := range []string{"\"a\x01b\"", "\"a\tb\"", "\"a\nb\"", "\"\xff\"", "\"\xc3\"", "\"\\n\x1f\"", "\"\\n\xff\"", "\"\\n\xed\xa0\x80\""} {
		bad = append(bad,
			fmt.Sprintf(submission, str, `1`, ``),
			fmt.Sprintf(submission, `"x"`, `1`, `,"extra":`+str))
	}
	// Each required key must appear exactly once: an object that omits
	// it, repeats it, or repeats it in place of another key (so eight keys
	// are still counted) is rejected.
	fields := []string{`"test_id":1`, `"user_id":2`, `"city":"A"`, `"isp":"x"`,
		`"timestamp":0`, `"download_mbps":1`, `"upload_mbps":1`, `"latency_ms":1`}
	object := func(kv []string) string { return "{" + strings.Join(kv, ",") + "}" }
	for k, f := range fields {
		instead := append([]string{}, fields...)
		instead[(k+1)%len(fields)] = f
		bad = append(bad,
			object(append(append([]string{}, fields[:k]...), fields[k+1:]...)),
			object(append(append([]string{}, fields...), f)),
			object(instead))
	}
	for i, in := range bad {
		var row dataset.IngestRow
		if err := parseSubmission([]byte(in), &row); err == nil {
			t.Errorf("input %d accepted: %s", i, in)
		}
	}
}

// TestParseSubmissionFloatBits checks shortest-form float rendering round
// trips bit-exactly through AppendSubmission + parseSubmission — the load
// generator's request bytes must reconstruct the exact sample values, or
// online tiers could diverge from batch reruns.
func TestParseSubmissionFloatBits(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1.0 / 3, 941.6785229364581, 5e-324, math.MaxFloat64}
	for _, v := range vals {
		in := dataset.IngestRow{City: "A", ISP: "x", DownloadMbps: v, UploadMbps: v, LatencyMs: v,
			Timestamp: time.Unix(0, 42)}
		var got dataset.IngestRow
		if err := parseSubmission(AppendSubmission(nil, &in), &got); err != nil {
			t.Fatalf("%g: %v", v, err)
		}
		if math.Float64bits(got.DownloadMbps) != math.Float64bits(v) {
			t.Errorf("%g: bits changed (%x -> %x)", v, math.Float64bits(v), math.Float64bits(got.DownloadMbps))
		}
	}
}

func TestAppendAckShape(t *testing.T) {
	got := string(appendAck(nil, core.Assignment{UploadTier: 2, Tier: 3, Confidence: 0.25}))
	want := `{"tier":3,"upload_tier":2,"confidence":0.25}`
	if got != want {
		t.Fatalf("ack = %s, want %s", got, want)
	}
	if !strings.Contains(string(appendError(nil, errMalformed)), `"error":`) {
		t.Fatal("error ack missing error key")
	}
}

// refSubmission is the reference decoder FuzzParseSubmission compares
// parseSubmission against: encoding/json's tokenizer, which implements
// RFC 8259, under the same domain rules (a flat object, each required key
// exactly once, unknown keys skipped, a non-empty city). encoding/json
// replaces invalid UTF-8 in strings instead of rejecting it, so the
// reference rejects it up front; outside strings it is a syntax error
// anyway.
func refSubmission(b []byte) (dataset.IngestRow, error) {
	var row dataset.IngestRow
	if !utf8.Valid(b) {
		return row, errors.New("invalid UTF-8")
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return row, errors.New("not an object")
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return row, err
		}
		key, ok := tok.(string)
		if !ok {
			return row, errors.New("key is not a string")
		}
		val, err := dec.Token()
		if err != nil {
			return row, err
		}
		if _, nested := val.(json.Delim); nested {
			return row, errors.New("nested value")
		}
		num, _ := val.(json.Number)
		str, isStr := val.(string)
		switch key {
		case "test_id", "user_id", "timestamp":
			v, err := strconv.ParseInt(string(num), 10, 64)
			if err != nil {
				return row, err
			}
			switch key {
			case "test_id":
				row.TestID = int(v)
			case "user_id":
				row.UserID = int(v)
			default:
				row.Timestamp = time.Unix(0, v).UTC()
			}
		case "download_mbps", "upload_mbps", "latency_ms":
			v, err := strconv.ParseFloat(string(num), 64)
			if err != nil {
				return row, err
			}
			switch key {
			case "download_mbps":
				row.DownloadMbps = v
			case "upload_mbps":
				row.UploadMbps = v
			default:
				row.LatencyMs = v
			}
		case "city", "isp":
			if !isStr {
				return row, errors.New("not a string")
			}
			if key == "city" {
				row.City = str
			} else {
				row.ISP = str
			}
		default:
			continue
		}
		if seen[key] {
			return row, errors.New("duplicate key")
		}
		seen[key] = true
	}
	if tok, err := dec.Token(); err != nil || tok != json.Delim('}') {
		return row, errors.New("unterminated object")
	}
	if _, err := dec.Token(); err != io.EOF {
		return row, errors.New("trailing data")
	}
	if len(seen) != 8 {
		return row, errors.New("missing required fields")
	}
	if row.City == "" {
		return row, errors.New("empty city")
	}
	return row, nil
}

// sameSubmission reports whether two decoded rows are equal, floats bit
// for bit.
func sameSubmission(a, b *dataset.IngestRow) bool {
	return a.TestID == b.TestID && a.UserID == b.UserID &&
		a.City == b.City && a.ISP == b.ISP &&
		a.Timestamp.UnixNano() == b.Timestamp.UnixNano() &&
		math.Float64bits(a.DownloadMbps) == math.Float64bits(b.DownloadMbps) &&
		math.Float64bits(a.UploadMbps) == math.Float64bits(b.UploadMbps) &&
		math.Float64bits(a.LatencyMs) == math.Float64bits(b.LatencyMs)
}

// FuzzParseSubmission checks parseSubmission against refSubmission: both
// accept or both reject, and an accepted input decodes to the same row.
// An accepted row must also survive AppendSubmission: its wire form
// parses back to the same row and renders to the same bytes again.
func FuzzParseSubmission(f *testing.F) {
	for _, seed := range []string{
		`{"test_id":1,"user_id":2,"city":"A","isp":"ISP-A","timestamp":1609459200000000000,"download_mbps":412.5,"upload_mbps":18.2,"latency_ms":11.3}`,
		"{ \"test_id\" : 7 ,\n\t\"user_id\": 0, \"city\":\"B\", \"isp\":\"quoted \\\"isp\\\"\",\n\"timestamp\": 5, \"download_mbps\": 1e2, \"upload_mbps\": 0.5e-1, \"latency_ms\": -0.0 }",
		`{"extra":"ignored","test_id":3,"user_id":4,"city":"Cé","isp":"a\/b\u0001😀\ud800","timestamp":-1,"download_mbps":100,"upload_mbps":10,"latency_ms":1,"also":null,"flag":true}`,
		`{"test_id":1,"user_id":2,"city":"A","isp":"x","timestamp":0,"download_mbps":01,"upload_mbps":1,"latency_ms":1}`,
		`{"test_id":1,"user_id":2,"city":"A","isp":"x","timestamp":0,"download_mbps":1,"upload_mbps":1,"latency_ms":1,"extra":--}`,
		`{"test_id":1,"user_id":2,"city":"A","isp":"x","timestamp":0,"download_mbps":1,"upload_mbps":1,"latency_ms":1,"test_id":1}`,
		"{\"test_id\":1,\"user_id\":2,\"city\":\"A\",\"isp\":\"\xff\",\"timestamp\":0,\"download_mbps\":1,\"upload_mbps\":1,\"latency_ms\":1}",
		`{"test_id":1,"user_id":2,"city":"","isp":"x","timestamp":0,"download_mbps":1,"upload_mbps":1,"latency_ms":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var got dataset.IngestRow
		err := parseSubmission(in, &got)
		want, refErr := refSubmission(in)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("parseSubmission error %v, reference error %v, on %q", err, refErr, in)
		}
		if err != nil {
			return
		}
		if !sameSubmission(&got, &want) {
			t.Fatalf("parseSubmission %+v, reference %+v, on %q", got, want, in)
		}
		wire := AppendSubmission(nil, &got)
		var again dataset.IngestRow
		if err := parseSubmission(wire, &again); err != nil {
			t.Fatalf("AppendSubmission output %q rejected: %v", wire, err)
		}
		if !sameSubmission(&again, &got) {
			t.Fatalf("AppendSubmission round trip %+v, want %+v", again, got)
		}
		if w2 := AppendSubmission(nil, &again); !bytes.Equal(w2, wire) {
			t.Fatalf("AppendSubmission not a fixpoint: %q then %q", wire, w2)
		}
	})
}
