package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"speedctx/internal/core"
	"speedctx/internal/dataset"
)

// The wire schema is one flat JSON object per completed test:
//
//	{"test_id":17,"user_id":4,"city":"A","isp":"ISP-A",
//	 "timestamp":1609459200000000000,
//	 "download_mbps":412.5,"upload_mbps":18.2,"latency_ms":11.3}
//
// timestamp is Unix nanoseconds UTC. The hand-rolled scanner below exists
// because encoding/json's reflective decode dominated the ingest profile;
// the schema is flat and fixed, so a single left-to-right pass with no
// intermediate map suffices. Each of the eight keys above is required
// exactly once; unknown keys are skipped (forward compatibility); nested
// values are rejected. Scalars follow RFC 8259 exactly: numbers match its
// grammar, and strings reject unescaped control characters and invalid
// UTF-8.

var errMalformed = errors.New("ingest: malformed submission")

// Required-field bits of parseSubmission's seen mask.
const (
	fieldTestID = 1 << iota
	fieldUserID
	fieldCity
	fieldISP
	fieldTimestamp
	fieldDownload
	fieldUpload
	fieldLatency
	allFields = 1<<iota - 1
)

// parseSubmission decodes one submission object into row. It rejects an
// object that omits or repeats a required key, and leaves the
// classification fields (UploadTier, Tier, Confidence) untouched.
func parseSubmission(b []byte, row *dataset.IngestRow) error {
	i := skipWS(b, 0)
	if i >= len(b) || b[i] != '{' {
		return errMalformed
	}
	i = skipWS(b, i+1)
	if i < len(b) && b[i] == '}' {
		return errors.New("ingest: empty submission")
	}
	seen := 0 // mask of the required fields decoded so far
	for {
		key, next, err := scanString(b, i)
		if err != nil {
			return err
		}
		i = skipWS(b, next)
		if i >= len(b) || b[i] != ':' {
			return errMalformed
		}
		i = skipWS(b, i+1)
		field := 0
		switch key {
		case "test_id":
			v, next, err := scanInt(b, i)
			if err != nil {
				return fmt.Errorf("ingest: test_id: %w", err)
			}
			row.TestID, i = int(v), next
			field = fieldTestID
		case "user_id":
			v, next, err := scanInt(b, i)
			if err != nil {
				return fmt.Errorf("ingest: user_id: %w", err)
			}
			row.UserID, i = int(v), next
			field = fieldUserID
		case "city":
			v, next, err := scanString(b, i)
			if err != nil {
				return fmt.Errorf("ingest: city: %w", err)
			}
			row.City, i = v, next
			field = fieldCity
		case "isp":
			v, next, err := scanString(b, i)
			if err != nil {
				return fmt.Errorf("ingest: isp: %w", err)
			}
			row.ISP, i = v, next
			field = fieldISP
		case "timestamp":
			v, next, err := scanInt(b, i)
			if err != nil {
				return fmt.Errorf("ingest: timestamp: %w", err)
			}
			row.Timestamp, i = time.Unix(0, v).UTC(), next
			field = fieldTimestamp
		case "download_mbps":
			v, next, err := scanFloat(b, i)
			if err != nil {
				return fmt.Errorf("ingest: download_mbps: %w", err)
			}
			row.DownloadMbps, i = v, next
			field = fieldDownload
		case "upload_mbps":
			v, next, err := scanFloat(b, i)
			if err != nil {
				return fmt.Errorf("ingest: upload_mbps: %w", err)
			}
			row.UploadMbps, i = v, next
			field = fieldUpload
		case "latency_ms":
			v, next, err := scanFloat(b, i)
			if err != nil {
				return fmt.Errorf("ingest: latency_ms: %w", err)
			}
			row.LatencyMs, i = v, next
			field = fieldLatency
		default:
			next, err := skipValue(b, i)
			if err != nil {
				return err
			}
			i = next
		}
		if seen&field != 0 {
			return fmt.Errorf("ingest: duplicate key %q", key)
		}
		seen |= field
		i = skipWS(b, i)
		if i >= len(b) {
			return errMalformed
		}
		switch b[i] {
		case ',':
			i = skipWS(b, i+1)
		case '}':
			if rest := skipWS(b, i+1); rest != len(b) {
				return errMalformed
			}
			if seen != allFields {
				return errors.New("ingest: submission missing required fields")
			}
			if row.City == "" {
				return errors.New("ingest: submission city is empty")
			}
			return nil
		default:
			return errMalformed
		}
	}
}

func skipWS(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\r', '\n':
			i++
		default:
			return i
		}
	}
	return i
}

// scanString decodes a JSON string starting at b[i]. The common escape-free
// case is one sub-slice copy; escapes fall back to a rune-by-rune decode.
func scanString(b []byte, i int) (string, int, error) {
	if i >= len(b) || b[i] != '"' {
		return "", i, errMalformed
	}
	start := i + 1
	ascii := true
	for j := start; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			if !ascii && !utf8.Valid(b[start:j]) {
				return "", i, errMalformed
			}
			return string(b[start:j]), j + 1, nil
		case c == '\\':
			return scanEscapedString(b, start)
		case c < 0x20:
			return "", i, errMalformed
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return "", i, errMalformed
}

func scanEscapedString(b []byte, start int) (string, int, error) {
	out := make([]byte, 0, 16)
	j := start
	for j < len(b) {
		switch c := b[j]; c {
		case '"':
			// Escapes append whole runes, so out is valid UTF-8 exactly
			// when the raw bytes between them are.
			if !utf8.Valid(out) {
				return "", j, errMalformed
			}
			return string(out), j + 1, nil
		case '\\':
			if j+1 >= len(b) {
				return "", j, errMalformed
			}
			switch e := b[j+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
				j += 2
			case 'n':
				out = append(out, '\n')
				j += 2
			case 't':
				out = append(out, '\t')
				j += 2
			case 'r':
				out = append(out, '\r')
				j += 2
			case 'b':
				out = append(out, '\b')
				j += 2
			case 'f':
				out = append(out, '\f')
				j += 2
			case 'u':
				if j+6 > len(b) {
					return "", j, errMalformed
				}
				v, err := strconv.ParseUint(string(b[j+2:j+6]), 16, 32)
				if err != nil {
					return "", j, errMalformed
				}
				r := rune(v)
				j += 6
				if utf16.IsSurrogate(r) && j+6 <= len(b) && b[j] == '\\' && b[j+1] == 'u' {
					v2, err := strconv.ParseUint(string(b[j+2:j+6]), 16, 32)
					if err == nil {
						if c := utf16.DecodeRune(r, rune(v2)); c != utf8.RuneError {
							r = c
							j += 6
						}
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				return "", j, errMalformed
			}
		default:
			if c < 0x20 {
				return "", j, errMalformed
			}
			out = append(out, c)
			j++
		}
	}
	return "", j, errMalformed
}

// numEnd returns the end of the RFC 8259 number that starts at b[i]:
// an optional minus, then 0 or a digit run without a leading zero, then
// an optional fraction and an optional exponent, each with at least one
// digit. It returns i when no number starts there.
func numEnd(b []byte, i int) int {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && '1' <= b[j] && b[j] <= '9':
		j = digitsEnd(b, j+1)
	default:
		return i
	}
	if j < len(b) && b[j] == '.' {
		k := digitsEnd(b, j+1)
		if k == j+1 {
			return i
		}
		j = k
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		k := j + 1
		if k < len(b) && (b[k] == '+' || b[k] == '-') {
			k++
		}
		e := digitsEnd(b, k)
		if e == k {
			return i
		}
		j = e
	}
	return j
}

// digitsEnd returns the end of the run of ASCII digits starting at b[i].
func digitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func scanInt(b []byte, i int) (int64, int, error) {
	j := numEnd(b, i)
	if j == i {
		return 0, i, errMalformed
	}
	v, err := strconv.ParseInt(string(b[i:j]), 10, 64)
	if err != nil {
		return 0, i, err
	}
	return v, j, nil
}

func scanFloat(b []byte, i int) (float64, int, error) {
	j := numEnd(b, i)
	if j == i {
		return 0, i, errMalformed
	}
	v, err := strconv.ParseFloat(string(b[i:j]), 64)
	if err != nil {
		return 0, i, err
	}
	return v, j, nil
}

// skipValue steps over one unknown scalar value (forward compatibility).
// Composite values are rejected: the schema is flat by contract.
func skipValue(b []byte, i int) (int, error) {
	if i >= len(b) {
		return i, errMalformed
	}
	switch b[i] {
	case '"':
		_, next, err := scanString(b, i)
		return next, err
	case 't':
		return expectLit(b, i, "true")
	case 'f':
		return expectLit(b, i, "false")
	case 'n':
		return expectLit(b, i, "null")
	case '{', '[':
		return i, errors.New("ingest: nested values not supported")
	default:
		if j := numEnd(b, i); j > i {
			return j, nil
		}
		return i, errMalformed
	}
}

func expectLit(b []byte, i int, lit string) (int, error) {
	if i+len(lit) > len(b) || string(b[i:i+len(lit)]) != lit {
		return i, errMalformed
	}
	return i + len(lit), nil
}

// appendAck renders the classification ack without encoding/json:
//
//	{"tier":3,"upload_tier":2,"confidence":0.9713}
func appendAck(dst []byte, a core.Assignment) []byte {
	dst = append(dst, `{"tier":`...)
	dst = strconv.AppendInt(dst, int64(a.Tier), 10)
	dst = append(dst, `,"upload_tier":`...)
	dst = strconv.AppendInt(dst, int64(a.UploadTier), 10)
	dst = append(dst, `,"confidence":`...)
	dst = strconv.AppendFloat(dst, a.Confidence, 'g', -1, 64)
	dst = append(dst, '}')
	return dst
}

// appendError renders a per-line batch error ack.
func appendError(dst []byte, err error) []byte {
	dst = append(dst, `{"error":`...)
	dst = strconv.AppendQuote(dst, err.Error())
	dst = append(dst, '}')
	return dst
}

// AppendSubmission renders row in the wire schema — the inverse of
// parseSubmission, shared by the load generator and the tests.
func AppendSubmission(dst []byte, row *dataset.IngestRow) []byte {
	dst = append(dst, `{"test_id":`...)
	dst = strconv.AppendInt(dst, int64(row.TestID), 10)
	dst = append(dst, `,"user_id":`...)
	dst = strconv.AppendInt(dst, int64(row.UserID), 10)
	dst = append(dst, `,"city":`...)
	dst = appendString(dst, row.City)
	dst = append(dst, `,"isp":`...)
	dst = appendString(dst, row.ISP)
	dst = append(dst, `,"timestamp":`...)
	dst = strconv.AppendInt(dst, row.Timestamp.UnixNano(), 10)
	dst = append(dst, `,"download_mbps":`...)
	dst = strconv.AppendFloat(dst, row.DownloadMbps, 'g', -1, 64)
	dst = append(dst, `,"upload_mbps":`...)
	dst = strconv.AppendFloat(dst, row.UploadMbps, 'g', -1, 64)
	dst = append(dst, `,"latency_ms":`...)
	dst = strconv.AppendFloat(dst, row.LatencyMs, 'g', -1, 64)
	dst = append(dst, '}')
	return dst
}

// appendString renders s as a JSON string. encoding/json escapes control
// characters and replaces invalid UTF-8 with U+FFFD, so parseSubmission
// reads back any valid UTF-8 s unchanged.
func appendString(dst []byte, s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return append(dst, b...)
}
