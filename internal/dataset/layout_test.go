package dataset

import (
	"reflect"
	"testing"
)

// TestSectionLayoutIDs: every section table lists block ids 1..N in
// order — the scanner's binder indexes the table by id — and maps its
// entries one-to-one onto the column struct's fields, so no field is
// stored twice or left out of the format.
func TestSectionLayoutIDs(t *testing.T) {
	checkLayout(t, &ooklaLayout)
	checkLayout(t, &mlabLayout)
	checkLayout(t, &mbaLayout)
	checkLayout(t, &ingestLayout)
	checkLayout(t, &sketchLayout)
}

func checkLayout[S, R any](t *testing.T, l *layout[S, R]) {
	t.Helper()
	// Give struct field k a slice of k+1 rows; each entry's row count then
	// names the field it reads.
	var c S
	v := reflect.ValueOf(&c).Elem()
	if v.NumField() != len(l.cols) {
		t.Fatalf("%s: %d table entries for %d struct fields", l.name, len(l.cols), v.NumField())
	}
	for k := 0; k < v.NumField(); k++ {
		f := v.Field(k)
		f.Set(reflect.MakeSlice(f.Type(), k+1, k+1))
	}
	seen := make(map[int]bool)
	for i, f := range l.cols {
		if f.blockID() != byte(i+1) {
			t.Errorf("%s: entry %d has block id %d, want %d", l.name, i, f.blockID(), i+1)
		}
		n := f.rows(&c)
		if seen[n] {
			t.Errorf("%s: block %d reads struct field %s again", l.name, f.blockID(), v.Type().Field(n-1).Name)
		}
		seen[n] = true
	}
}
