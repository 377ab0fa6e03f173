package dataset

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// SnapshotStore is a directory of .sxc city snapshots keyed by
// (city, seed, scale, generator version, data version). Both versions are
// baked into the filename (the data version is in the file header too),
// so bumping either orphans old cache entries instead of forcing every
// Load through a decode-and-reject cycle; stale files are simply never
// consulted again. Only the filename carries GeneratorVersion: a stale
// generator's rows are well-formed, so nothing in the file could reject
// them.
//
// Store semantics are cache semantics: Load errors (missing file, torn
// write, checksum mismatch, foreign version) all mean "miss" to callers,
// which regenerate and Save. Save writes to a tempfile in the same
// directory and renames it into place, so concurrent writers race
// harmlessly and readers never observe a partial file.
type SnapshotStore struct {
	Dir string
}

// SnapshotKey identifies one city's datasets within a store.
type SnapshotKey struct {
	City  string
	Seed  int64
	Scale float64
}

// filename renders the key. City IDs are single letters today; sanitize
// anyway so an unexpected ID cannot escape the store directory.
func (k SnapshotKey) filename() string {
	city := make([]byte, 0, len(k.City))
	for i := 0; i < len(k.City); i++ {
		c := k.City[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_':
			city = append(city, c)
		default:
			city = append(city, '_')
		}
	}
	return fmt.Sprintf("city%s_seed%d_scale%s_g%d_v%d.sxc",
		city, k.Seed, strconv.FormatFloat(k.Scale, 'g', -1, 64), GeneratorVersion, DataVersion)
}

// Path returns the file path a key maps to.
func (st *SnapshotStore) Path(k SnapshotKey) string {
	return filepath.Join(st.Dir, k.filename())
}

// Load reads and decodes the snapshot for a key. Any failure — absent
// file, corruption, stale version — is returned as an error the caller
// treats as a cache miss.
func (st *SnapshotStore) Load(k SnapshotKey) (*CitySnapshot, error) {
	data, err := os.ReadFile(st.Path(k))
	if err != nil {
		return nil, err
	}
	return DecodeCitySnapshot(data)
}

// Save atomically writes the snapshot for a key: encode, then
// WriteFileAtomic into the store directory.
func (st *SnapshotStore) Save(k SnapshotKey, snap *CitySnapshot) error {
	buf, err := encodeCitySnapshot(snap, DataVersion)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(st.Dir, 0o755); err != nil {
		return err
	}
	return WriteFileAtomic(st.Path(k), buf)
}

// WriteFileAtomic is the tempfile-and-rename write every .sxc file goes
// through (store saves, ingest seals, compactions, clustered siblings):
// buf lands in a tempfile beside path, which is then renamed over it, so
// readers see the old file or the new one, never a torn one, and a failed
// write leaves the old file intact and no tempfile behind. There is no
// fsync, so the rename survives a process crash but not a power loss.
func WriteFileAtomic(path string, buf []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
