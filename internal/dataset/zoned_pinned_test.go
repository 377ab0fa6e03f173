package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"speedctx/internal/device"
	"speedctx/internal/wifi"
)

// pinOoklaColumns builds n Ookla rows from integer formulas: a few cities
// and ISPs in runs, radio info on some rows, and one NaN latency, so the
// zone bounds cover bounded, boundless and NaN-degraded groups.
func pinOoklaColumns(n int) *OoklaColumns {
	base := time.Unix(1609459200, 0).UTC()
	c := &OoklaColumns{}
	platforms := []device.Platform{device.Android, device.IOS, device.Web}
	access := []AccessType{AccessWiFi, AccessEthernet, AccessUnknown}
	for i := 0; i < n; i++ {
		radio := i%5 == 0
		band := wifi.Band24GHz
		if radio && i%2 == 0 {
			band = wifi.Band5GHz
		}
		if !radio {
			band = 0
		}
		c.TestID = append(c.TestID, 3*i+1)
		c.UserID = append(c.UserID, (i*7919)%1201)
		c.City = append(c.City, string(rune('A'+i/1500%3)))
		c.ISP = append(c.ISP, "ISP-"+string(rune('0'+i%4)))
		c.Timestamp = append(c.Timestamp, base.Add(time.Duration(i*37)*time.Second))
		c.Platform = append(c.Platform, platforms[i%3])
		c.Access = append(c.Access, access[i%3])
		c.HasRadioInfo = append(c.HasRadioInfo, radio)
		c.Band = append(c.Band, band)
		c.RSSI = append(c.RSSI, -float64(30+i%60)-0.25)
		c.MaxTheoretical = append(c.MaxTheoretical, float64(72+i%400)+0.2)
		c.KernelMemMB = append(c.KernelMemMB, 1024*(1+i%4))
		c.Download = append(c.Download, float64(i%900)+0.5)
		c.Upload = append(c.Upload, float64(i%40)+0.125)
		c.Latency = append(c.Latency, float64(5+i%70))
		c.TruthTier = append(c.TruthTier, i%6)
	}
	if n > 5000 {
		c.Latency[5000] = math.NaN()
	}
	return c
}

// TestZonedCitySnapshotPinned pins EncodeCitySnapshotZoned of a snapshot
// whose Ookla and ingest sections each span several zone groups (the
// default 4,096 rows, and 1,000), beside a plain Android section.
func TestZonedCitySnapshotPinned(t *testing.T) {
	const (
		wantDefault = "b613a3a765d345f4ffa654e2fe45fb418a82ce6a65960e88c0de30a1043a54b6"
		wantSmall   = "afde478acd5fa3c12b69999632d35cc0d9ddae6c73511d9e2c0ee564a50f7770"
	)
	ookla := pinOoklaColumns(10000)
	rows := zonedIngestRows(9000)
	SortIngestRowsClustered(rows, testZoneKey16)
	snap := &CitySnapshot{
		Ookla:   ClusterOoklaColumns(ookla, testZoneKey16),
		Android: pinOoklaColumns(300),
		Ingest:  ColumnizeIngest(rows),
	}
	for _, tc := range []struct {
		name      string
		blockRows int
		want      string
	}{
		{"default groups", 0, wantDefault},
		{"1000-row groups", 1000, wantSmall},
	} {
		data, err := EncodeCitySnapshotZoned(snap, testZoneOptions(tc.blockRows))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: %d bytes hash to %s, pinned %s", tc.name, len(data), got, tc.want)
		}
	}
}
