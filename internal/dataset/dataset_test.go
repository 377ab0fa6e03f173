package dataset

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"speedctx/internal/device"
	"speedctx/internal/plans"
	"speedctx/internal/stats"
)

func TestGenerateOoklaBasics(t *testing.T) {
	recs := GenerateOokla(plans.CityA(), 2000, 1)
	if len(recs) != 2000 {
		t.Fatalf("len = %d", len(recs))
	}
	androids, radios := 0, 0
	for _, r := range recs {
		if r.City != "A" || r.ISP != "ISP-A" {
			t.Fatalf("wrong city/isp: %+v", r)
		}
		if r.DownloadMbps <= 0 || r.UploadMbps <= 0 {
			t.Fatalf("non-positive speeds: %+v", r)
		}
		if r.TruthTier < 1 || r.TruthTier > 6 {
			t.Fatalf("tier = %d", r.TruthTier)
		}
		if r.Timestamp.Year() != 2021 {
			t.Fatalf("year = %d", r.Timestamp.Year())
		}
		if r.Platform == device.Android {
			androids++
			if r.HasRadioInfo {
				radios++
				if r.MaxTheoreticalMbps <= 0 {
					t.Fatal("android row missing PHY ceiling")
				}
			}
		} else if r.HasRadioInfo {
			t.Fatal("non-android row with radio info")
		}
		if r.Platform == device.Web && r.Access != AccessUnknown {
			t.Fatal("web row should have unknown access")
		}
	}
	if androids == 0 || radios != androids {
		t.Errorf("androids = %d, with radio = %d", androids, radios)
	}
}

func TestGenerateOoklaDeterminism(t *testing.T) {
	a := GenerateOokla(plans.CityB(), 300, 7)
	b := GenerateOokla(plans.CityB(), 300, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generation not deterministic")
		}
	}
	c := GenerateOokla(plans.CityB(), 300, 8)
	same := 0
	for i := range a {
		if a[i].DownloadMbps == c[i].DownloadMbps {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical data")
	}
}

func TestGenerateOoklaSpeedsBelowPlanCeiling(t *testing.T) {
	cat := plans.CityA()
	for _, r := range GenerateOokla(cat, 1500, 2) {
		plan, ok := cat.PlanByTier(r.TruthTier)
		if !ok {
			t.Fatalf("tier %d", r.TruthTier)
		}
		// Overprovisioning is capped at 1.3x advertised.
		if r.DownloadMbps > 1.35*float64(plan.Download) {
			t.Fatalf("download %v wildly exceeds plan %v", r.DownloadMbps, plan.Download)
		}
		if r.UploadMbps > 1.4*float64(plan.Upload) {
			t.Fatalf("upload %v wildly exceeds plan %v", r.UploadMbps, plan.Upload)
		}
	}
}

func TestGenerateMLabRowsAndAssociation(t *testing.T) {
	rows := GenerateMLab(plans.CityA(), 1500, 3, DefaultMLabOptions())
	downs, ups := 0, 0
	for _, r := range rows {
		switch r.Direction {
		case MLabDownload:
			downs++
		case MLabUpload:
			ups++
		default:
			t.Fatalf("bad direction %q", r.Direction)
		}
	}
	if downs != 1500 {
		t.Errorf("download rows = %d, want 1500", downs)
	}
	if ups >= downs {
		t.Errorf("uploads (%d) should be fewer than downloads (%d) due to unpaired share", ups, downs)
	}
	tests := Associate(rows)
	if len(tests) == 0 {
		t.Fatal("association produced nothing")
	}
	// Roughly the paired share should associate; NAT sharing can add or
	// steal a few pairs.
	if float64(len(tests)) < 0.8*float64(ups) {
		t.Errorf("associated %d of %d upload rows", len(tests), ups)
	}
	for _, p := range tests {
		if p.DownloadMbps <= 0 || p.UploadMbps <= 0 {
			t.Fatal("bad pair speeds")
		}
	}
}

func TestGenerateMLabOffCatalogCluster(t *testing.T) {
	rows := GenerateMLab(plans.CityA(), 3000, 4, DefaultMLabOptions())
	off, near1 := 0, 0
	for _, r := range rows {
		if r.TruthTier == 0 {
			off++
			if r.Direction == MLabUpload && r.SpeedMbps < 2 {
				near1++
			}
		}
	}
	if off == 0 {
		t.Fatal("no off-catalog rows; Fig 6's ~1 Mbps cluster missing")
	}
	if near1 == 0 {
		t.Error("off-catalog uploads not clustering near 1 Mbps")
	}
}

func TestAssociateWindowRules(t *testing.T) {
	base := time.Date(2021, 5, 1, 12, 0, 0, 0, time.UTC)
	mk := func(id int, dir MLabDirection, off time.Duration, speed float64) MLabRow {
		return MLabRow{RowID: id, ClientIP: "1.1.1.1", ServerIP: "2.2.2.2",
			Timestamp: base.Add(off), Direction: dir, SpeedMbps: speed}
	}
	// Two uploads in window: earliest wins.
	rows := []MLabRow{
		mk(0, MLabDownload, 0, 100),
		mk(1, MLabUpload, 30*time.Second, 5),
		mk(2, MLabUpload, 60*time.Second, 9),
	}
	tests := Associate(rows)
	if len(tests) != 1 || tests[0].UploadMbps != 5 {
		t.Errorf("earliest-upload rule broken: %+v", tests)
	}
	// Upload outside 120 s window: no pair.
	rows = []MLabRow{
		mk(0, MLabDownload, 0, 100),
		mk(1, MLabUpload, 121*time.Second, 5),
	}
	if got := Associate(rows); len(got) != 0 {
		t.Errorf("out-of-window pair created: %+v", got)
	}
	// Upload before the download: no pair.
	rows = []MLabRow{
		mk(0, MLabDownload, 0, 100),
		mk(1, MLabUpload, -10*time.Second, 5),
	}
	if got := Associate(rows); len(got) != 0 {
		t.Errorf("pre-download pair created: %+v", got)
	}
	// Different server IP: no pair.
	rows = []MLabRow{
		mk(0, MLabDownload, 0, 100),
		{RowID: 1, ClientIP: "1.1.1.1", ServerIP: "9.9.9.9",
			Timestamp: base.Add(10 * time.Second), Direction: MLabUpload, SpeedMbps: 5},
	}
	if got := Associate(rows); len(got) != 0 {
		t.Errorf("cross-server pair created: %+v", got)
	}
	// An upload is consumed by only one download.
	rows = []MLabRow{
		mk(0, MLabDownload, 0, 100),
		mk(1, MLabDownload, 5*time.Second, 200),
		mk(2, MLabUpload, 30*time.Second, 5),
	}
	if got := Associate(rows); len(got) != 1 {
		t.Errorf("upload reused across downloads: %+v", got)
	}
}

func TestGenerateMBA(t *testing.T) {
	recs := GenerateMBA(plans.CityA(), 20, 3000, 5)
	if len(recs) != 3000 {
		t.Fatalf("len = %d", len(recs))
	}
	unitSet := map[int]bool{}
	for _, r := range recs {
		unitSet[r.UnitID] = true
		if r.State != "A" {
			t.Fatalf("state = %q", r.State)
		}
		if r.PlanDown == 0 || r.PlanUp == 0 {
			t.Fatal("missing ground-truth plan")
		}
		if r.Tier == 1 {
			t.Fatal("MBA State-A should lack tier 1")
		}
		m := r.Timestamp.Month()
		if m == time.September || m == time.October {
			t.Fatalf("MBA record in the missing months: %v", r.Timestamp)
		}
	}
	if len(unitSet) != 20 {
		t.Errorf("units = %d, want 20", len(unitSet))
	}
}

func TestMBAUploadsNearPlan(t *testing.T) {
	// Wired multi-connection tests should land close to the provisioned
	// upload — the basis of the paper's Fig 4 peaks.
	recs := GenerateMBA(plans.CityA(), 15, 2000, 6)
	within := 0
	for _, r := range recs {
		ratio := r.UploadMbps / float64(r.PlanUp)
		if ratio > 0.9 && ratio < 1.35 {
			within++
		}
	}
	if share := float64(within) / float64(len(recs)); share < 0.85 {
		t.Errorf("only %.2f of MBA uploads near plan", share)
	}
}

func TestOoklaCSVRoundTrip(t *testing.T) {
	recs := GenerateOokla(plans.CityA(), 200, 9)
	var buf bytes.Buffer
	if err := WriteOoklaCSV(&buf, ColumnizeOokla(recs)); err != nil {
		t.Fatal(err)
	}
	cols, err := ReadOoklaColumns(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	back := cols.Records()
	if len(back) != len(recs) {
		t.Fatalf("round trip len %d != %d", len(back), len(recs))
	}
	for i := range recs {
		a, b := recs[i], back[i]
		// Timestamps compare via Equal (round trip through RFC3339
		// drops the monotonic clock and sub-second precision; the
		// generator produces whole seconds).
		if !a.Timestamp.Equal(b.Timestamp) {
			t.Fatalf("row %d timestamp %v != %v", i, a.Timestamp, b.Timestamp)
		}
		a.Timestamp, b.Timestamp = time.Time{}, time.Time{}
		if a != b {
			t.Fatalf("row %d mismatch:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestMLabCSVRoundTrip(t *testing.T) {
	rows := GenerateMLab(plans.CityC(), 150, 10, DefaultMLabOptions())
	var buf bytes.Buffer
	if err := WriteMLabCSV(&buf, ColumnizeMLabRows(rows)); err != nil {
		t.Fatal(err)
	}
	cols, err := ReadMLabColumns(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	back := cols.Records()
	if len(back) != len(rows) {
		t.Fatalf("round trip len %d != %d", len(back), len(rows))
	}
	for i := range rows {
		a, b := rows[i], back[i]
		if !a.Timestamp.Equal(b.Timestamp) {
			t.Fatalf("row %d timestamp", i)
		}
		a.Timestamp, b.Timestamp = time.Time{}, time.Time{}
		if a != b {
			t.Fatalf("row %d mismatch:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestMBACSVRoundTrip(t *testing.T) {
	recs := GenerateMBA(plans.CityD(), 10, 120, 11)
	var buf bytes.Buffer
	if err := WriteMBACSV(&buf, ColumnizeMBA(recs)); err != nil {
		t.Fatal(err)
	}
	cols, err := ReadMBAColumns(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	back := cols.Records()
	for i := range recs {
		a, b := recs[i], back[i]
		if !a.Timestamp.Equal(b.Timestamp) {
			t.Fatalf("row %d timestamp", i)
		}
		a.Timestamp, b.Timestamp = time.Time{}, time.Time{}
		if a != b {
			t.Fatalf("row %d mismatch:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadOoklaColumns(strings.NewReader(""), 1); err == nil {
		t.Error("empty ookla csv should error")
	}
	if _, err := ReadMLabColumns(strings.NewReader(""), 1); err == nil {
		t.Error("empty mlab csv should error")
	}
	if _, err := ReadMBAColumns(strings.NewReader(""), 1); err == nil {
		t.Error("empty mba csv should error")
	}
	bad := strings.Join(ooklaHeader, ",") + "\n1,2,A\n"
	if _, err := ReadOoklaColumns(strings.NewReader(bad), 1); err == nil {
		t.Error("short ookla row should error")
	}
	badTime := strings.Join(mlabHeader, ",") + "\n1,a,b,A,ISP,1,notatime,download,1,1,1\n"
	if _, err := ReadMLabColumns(strings.NewReader(badTime), 1); err == nil {
		t.Error("bad mlab timestamp should error")
	}
	badDir := strings.Join(mlabHeader, ",") + "\n1,a,b,A,ISP,1,2021-01-01T00:00:00Z,sideways,1,1,1\n"
	if _, err := ReadMLabColumns(strings.NewReader(badDir), 1); err == nil {
		t.Error("bad mlab direction should error")
	}
}

func TestSampleProjections(t *testing.T) {
	o := []OoklaRecord{{DownloadMbps: 10, UploadMbps: 5}}
	if s := OoklaSamples(o); s[0].Download != 10 || s[0].Upload != 5 {
		t.Error("OoklaSamples")
	}
	m := []MLabTest{{DownloadMbps: 20, UploadMbps: 4}}
	if s := MLabSamples(m); s[0].Download != 20 || s[0].Upload != 4 {
		t.Error("MLabSamples")
	}
	b := []MBARecord{{DownloadMbps: 30, UploadMbps: 6}}
	if s := MBASamples(b); s[0].Download != 30 || s[0].Upload != 6 {
		t.Error("MBASamples")
	}
}

func TestClientIPNATSharing(t *testing.T) {
	// Several user IDs map to one public IP, and the space does not
	// collapse to a single address.
	if clientIP(0) != clientIP(1) {
		t.Error("adjacent users should share a NAT IP")
	}
	if clientIP(0) == clientIP(10) {
		t.Error("distant users should not share an IP")
	}
	seen := map[string]bool{}
	for i := 0; i < 3000; i++ {
		seen[clientIP(stats.NewRNG(int64(i)).Intn(1<<20))] = true
	}
	if len(seen) < 100 {
		t.Errorf("IP diversity too low: %d", len(seen))
	}
}
