package dataset

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"speedctx/internal/device"
	"speedctx/internal/wifi"
)

// csvFixture is a small hand-built dataset of each CSV format: Android
// rows in both WiFi bands, a radio-less web row (band written empty), an
// Ethernet row, an ISP name that needs RFC 4180 quoting, M-Lab rows in
// both directions, and MBA rows whose plan speeds are not integers.
func csvFixture() ([]OoklaRecord, []MLabRow, []MBARecord) {
	t0 := time.Date(2021, 3, 4, 5, 6, 7, 0, time.UTC)
	ookla := []OoklaRecord{
		{TestID: 1, UserID: 10, City: "A", ISP: "ISP-1", Timestamp: t0,
			Platform: device.Android, Access: AccessWiFi, HasRadioInfo: true,
			Band: wifi.Band24GHz, RSSI: -61.5, MaxTheoreticalMbps: 144.4,
			KernelMemMB: 1536, DownloadMbps: 93.25, UploadMbps: 0.30000000000000004,
			LatencyMs: 12, TruthTier: 2},
		{TestID: 2, UserID: 11, City: "A", ISP: "ISP-1", Timestamp: t0.Add(time.Hour),
			Platform: device.Android, Access: AccessWiFi, HasRadioInfo: true,
			Band: wifi.Band5GHz, RSSI: -48, MaxTheoreticalMbps: 866.7,
			KernelMemMB: 3072, DownloadMbps: 410.125, UploadMbps: 22.5,
			LatencyMs: 7.75, TruthTier: 4},
		{TestID: 3, UserID: 12, City: "A", ISP: `Acme, "Fiber"`, Timestamp: t0.Add(25 * time.Hour),
			Platform: device.Web, Access: AccessUnknown,
			DownloadMbps: 1e-7, UploadMbps: 1.5e21, LatencyMs: 30, TruthTier: 0},
		{TestID: 4, UserID: -5, City: "B", ISP: "ISP-2", Timestamp: t0.Add(-time.Minute),
			Platform: device.DesktopEthernet, Access: AccessEthernet,
			DownloadMbps: 940, UploadMbps: 35.2, LatencyMs: 2.5, TruthTier: 6},
	}
	mlab := []MLabRow{
		{RowID: 0, ClientIP: "10.0.0.1", ServerIP: "192.0.2.7", City: "A", ISP: "ISP-1",
			ASN: 64500, Timestamp: t0, Direction: MLabDownload,
			SpeedMbps: 88.125, MinRTTMs: 11.5, TruthTier: 3},
		{RowID: 1, ClientIP: "10.0.0.1", ServerIP: "192.0.2.7", City: "A", ISP: "ISP-1",
			ASN: 64500, Timestamp: t0.Add(12 * time.Second), Direction: MLabUpload,
			SpeedMbps: 9.875, MinRTTMs: 12.25, TruthTier: 3},
	}
	mba := []MBARecord{
		{UnitID: 7, State: "CA", ISP: "ISP-3", CensusTract: "06075010100", Timestamp: t0,
			DownloadMbps: 97.5, UploadMbps: 10.25, PlanDown: 100, PlanUp: 10, Tier: 2},
		{UnitID: 8, State: "CA", ISP: "ISP-3", CensusTract: "06075010200", Timestamp: t0.Add(time.Hour),
			DownloadMbps: 480.5, UploadMbps: 21, PlanDown: 500, PlanUp: 20.5, Tier: 5},
	}
	return ookla, mlab, mba
}

// The exact CSV text of csvFixture. Round-trip tests cannot catch a column
// swapped consistently in both writer and reader; these bytes can.
const (
	ooklaPinnedCSV = `test_id,user_id,city,isp,timestamp,platform,access,has_radio_info,band,rssi,max_theoretical_mbps,kernel_mem_mb,download_mbps,upload_mbps,latency_ms,truth_tier
1,10,A,ISP-1,2021-03-04T05:06:07Z,Android-App,wifi,true,2.4 GHz,-61.5,144.4,1536,93.25,0.30000000000000004,12,2
2,11,A,ISP-1,2021-03-04T06:06:07Z,Android-App,wifi,true,5 GHz,-48,866.7,3072,410.125,22.5,7.75,4
3,12,A,"Acme, ""Fiber""",2021-03-05T06:06:07Z,Net-Web,unknown,false,,0,0,0,1e-07,1.5e+21,30,0
4,-5,B,ISP-2,2021-03-04T05:05:07Z,Desktop Ethernet-App,ethernet,false,,0,0,0,940,35.2,2.5,6
`
	mlabPinnedCSV = `row_id,client_ip,server_ip,city,isp,asn,timestamp,direction,speed_mbps,min_rtt_ms,truth_tier
0,10.0.0.1,192.0.2.7,A,ISP-1,64500,2021-03-04T05:06:07Z,download,88.125,11.5,3
1,10.0.0.1,192.0.2.7,A,ISP-1,64500,2021-03-04T05:06:19Z,upload,9.875,12.25,3
`
	mbaPinnedCSV = `unit_id,state,isp,census_tract,timestamp,download_mbps,upload_mbps,plan_down_mbps,plan_up_mbps,tier
7,CA,ISP-3,06075010100,2021-03-04T05:06:07Z,97.5,10.25,100,10,2
8,CA,ISP-3,06075010200,2021-03-04T06:06:07Z,480.5,21,500,20.5,5
`
)

// TestCSVPinned writes csvFixture in each format, compares the bytes with
// the pinned text, and reads the text back into the fixture's columns.
func TestCSVPinned(t *testing.T) {
	ookla, mlab, mba := csvFixture()
	check := func(name, want string, write func(*bytes.Buffer) error, read func(*bytes.Buffer) (any, error), cols any) {
		t.Helper()
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		if got := buf.String(); got != want {
			t.Fatalf("%s: CSV bytes changed:\n got: %q\nwant: %q", name, got, want)
		}
		back, err := read(bytes.NewBufferString(want))
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if !reflect.DeepEqual(back, cols) {
			t.Fatalf("%s: columns read back differ:\n got: %+v\nwant: %+v", name, back, cols)
		}
	}
	check("ookla", ooklaPinnedCSV,
		func(b *bytes.Buffer) error { return WriteOoklaCSV(b, ColumnizeOokla(ookla)) },
		func(b *bytes.Buffer) (any, error) { return ReadOoklaColumns(b, 1) },
		ColumnizeOokla(ookla))
	check("mlab", mlabPinnedCSV,
		func(b *bytes.Buffer) error { return WriteMLabCSV(b, ColumnizeMLabRows(mlab)) },
		func(b *bytes.Buffer) (any, error) { return ReadMLabColumns(b, 1) },
		ColumnizeMLabRows(mlab))
	check("mba", mbaPinnedCSV,
		func(b *bytes.Buffer) error { return WriteMBACSV(b, ColumnizeMBA(mba)) },
		func(b *bytes.Buffer) (any, error) { return ReadMBAColumns(b, 1) },
		ColumnizeMBA(mba))
}
