package dataset

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"speedctx/internal/device"
	"speedctx/internal/wifi"
)

// Byte images of layoutFixture: the plain format-v2 encode (Ookla, M-Lab
// rows, MBA and Android sections) and the zoned format-v3 encode of the
// same snapshot under testZoneOptions(2), whose Ookla section is split
// into two zone-mapped row groups. They pin every row-section layout:
// a column whose id, codec or position changed consistently on both the
// encode and the decode side would still round-trip, yet would orphan
// every city snapshot already on disk.
const (
	layoutPlainHex = "535843310200020401030103b818735e07a8b6091404010203119f9206ce906f37060403" +
		"0306756be44f99d55db40101410000000410310827b9ecf331d402054953502d31054953" +
		"502d32000100050a4d6c22a242ee927d008098f3fe0bb401ec3606030096e98a03e9c99f" +
		"00030107125b2fa8fe3b1141100204776966690865746865726e65740001000803140d10" +
		"77c2d393760100000903140d1077c2d393760100000a18846be47d394ee0f70000000000" +
		"c04bc0000000000000000000000000000000000b1834af3280f7d616a09a99999999158b" +
		"40000000000000000000000000000000000c050384e34e407598e98020ff1f000d188793" +
		"079e59730ef100000000005057400000000000027e40000000000000f83f0e186f9eb68a" +
		"a70c3ac800000000000027400000000000c03640000000000000e03f0f1855580d9fec34" +
		"3ecf0000000000002c400000000000001a400000000000005e401003d18a187b6c7da150" +
		"04040502020102541a19b36be038e70202020cae205209160d673d010831302e302e302e" +
		"310000030d918b34cb538085d301093139322e302e322e3700000405ff389182c0ea8874" +
		"010141000005098c38a1c293810e6101054953502d3100000604f4e96d0f581dea8ae8ef" +
		"07000707f06034f5a1e5bbd5008098f3fe0b28081363dbbc9eeb1aff5d0208646f776e6c" +
		"6f61640675706c6f6164000109108f77d1fc99c5c5e70000000000004e40000000000000" +
		"20400a10aabb95867a4ed288333333333333264000000000000026400b02b548a0a03d8c" +
		"56690600030201039b9a4ff2caf2e87cc80102020671b0a65ac299731301024341000003" +
		"09cbc11814f92964e601054953502d330000041bc868c22460628370020b303630373530" +
		"31303130300b303630373530313032303000010510dffb3341ad68db690180bca19ebaa7" +
		"f9d52c80a4f9edb3030610ffc9e8b22851847b00000000004058400000000000405b4007" +
		"101c86274d2e5062f30000000000002240000000000000244008103fad0aaa2fb1df7100" +
		"0000000000594000000000000059400910f30cf8b0a051f92c0000000000002440000000" +
		"00000024400a02b242fc075bbbbe24040004020102ac5471b7b3bfea972802020217f60d" +
		"0cd35770d010020305ff389182c0ea8874010141000004098c38a1c293810e6101054953" +
		"502d3100000507fdc4704283a785ce008a98f3fe0b02060294fde3855028a32300000708" +
		"534ec2eac200747001047769666900000802a4281b3078b44c9701010902fe0988de8f84" +
		"7c1500010a10d16cf8e1c85a0bd900000000008051c000000000002048c00b101e6613e4" +
		"f811e441cdcccccccc0c5240cdcccccccc147b400c04cd02a59982c4a29a801080200d10" +
		"30500f5899408d1900000000008035400000000000c062400e108426cece44ae92a90000" +
		"00000000104000000000000029400f10d97049b5ee593ee50000000000003e4000000000" +
		"000032401002889856d5e56df82202046b1b2386db5c659c"
	layoutZonedHex = "53584331030002040703d602c160f0c7d9ca6c8d01100a0202d09994cf01a7fec7b30701" +
		"ffffffffffff2340010000000000284001ffffffffffff07400100000000001440000000" +
		"00000000010000000000c04bc000000000000000000100000000000000009a9999999915" +
		"8b40010100000000000080010000000000a0400100000000005057400000000000027e40" +
		"0100000000000027400000000000c03640010000000000001a400000000000002c4001ff" +
		"ffffffffffff3f010000000000104001d09994cf010001ffffffffffff25400100000000" +
		"00264001ffffffffffff0740010000000000084000000000000000010000000000000000" +
		"000000000000000001000000000000000000000000000000000101000000000000800100" +
		"00000000000001000000000000f83f000000000000f83f01000000000000e03f00000000" +
		"0000e03f010000000000005e400000000000005e4001ffffffffffffef3f010000000000" +
		"f03f01029ec33e9440ca20621404020276de0ab679c74d5b06040305ff389182c0ea8874" +
		"0101410000040fb46dc3a6f9b92eff02054953502d31054953502d3200010508b5b07993" +
		"ab0db50a008098f3fe0bb401060288b8336b4b0ff2a300030711c79b069b34f8678f0204" +
		"776966690865746865726e657400010802774575900560ef8101000902774575900560ef" +
		"8101000a1091776b2842f9995e0000000000c04bc000000000000000000b10ff31ff1a73" +
		"b9f54e9a99999999158b4000000000000000000c047e69efecc9461e908020ff1f0d108e" +
		"618eb1b4b76b4300000000005057400000000000027e400e10d5dcc4363b7fe043000000" +
		"00000027400000000000c036400f104326b3a1c3b35bff0000000000002c400000000000" +
		"001a401002d2a860a87193129904040101dc4c00e6a6ab145416020141ae6e9a8bbb34bb" +
		"06030430ab6b839a4b0116010141000408ce11186117edc0ba01054953502d310005060e" +
		"1be88c5be6634800a0d0f3fe0b060194fde3855028a323010707bd87579f7b3e09fe0104" +
		"77696669000801774575900560ef81000901774575900560ef81000a08b435d365952910" +
		"9200000000000000000b08b435d3659529109200000000000000000c01774575900560ef" +
		"81000d08304c688b7321f0d5000000000000f83f0e08b1afc69a0e8be145000000000000" +
		"e03f0f08f96337c6008be2ca0000000000005e401001956bccd4b8bfaf98020202010254" +
		"1a19b36be038e70202020cae205209160d673d010831302e302e302e310000030d918b34" +
		"cb538085d301093139322e302e322e3700000405ff389182c0ea8874010141000005098c" +
		"38a1c293810e6101054953502d3100000604f4e96d0f581dea8ae8ef07000707f06034f5" +
		"a1e5bbd5008098f3fe0b28081363dbbc9eeb1aff5d0208646f776e6c6f61640675706c6f" +
		"6164000109108f77d1fc99c5c5e70000000000004e4000000000000020400a10aabb9586" +
		"7a4ed288333333333333264000000000000026400b02b548a0a03d8c5669060003020103" +
		"9b9a4ff2caf2e87cc80102020671b0a65ac29973130102434100000309cbc11814f92964" +
		"e601054953502d330000041bc868c22460628370020b30363037353031303130300b3036" +
		"30373530313032303000010510dffb3341ad68db690180bca19ebaa7f9d52c80a4f9edb3" +
		"030610ffc9e8b22851847b00000000004058400000000000405b4007101c86274d2e5062" +
		"f30000000000002240000000000000244008103fad0aaa2fb1df71000000000000594000" +
		"000000000059400910f30cf8b0a051f92c000000000000244000000000000024400a02b2" +
		"42fc075bbbbe24040004020102ac5471b7b3bfea972802020217f60d0cd35770d0100203" +
		"05ff389182c0ea8874010141000004098c38a1c293810e6101054953502d3100000507fd" +
		"c4704283a785ce008a98f3fe0b02060294fde3855028a32300000708534ec2eac2007470" +
		"01047769666900000802a4281b3078b44c9701010902fe0988de8f847c1500010a10d16c" +
		"f8e1c85a0bd900000000008051c000000000002048c00b101e6613e4f811e441cdcccccc" +
		"cc0c5240cdcccccccc147b400c04cd02a59982c4a29a801080200d1030500f5899408d19" +
		"00000000008035400000000000c062400e108426cece44ae92a900000000000010400000" +
		"0000000029400f10d97049b5ee593ee50000000000003e40000000000000324010028898" +
		"56d5e56df822020492dd8a696f05c0f8"
)

// layoutFixture is a small deterministic snapshot exercising every codec
// of every generated row section: negative deltas, repeated and distinct
// dictionary entries, each enum, both bool values, and a sub-second
// timestamp (the nanosecond precision flag).
func layoutFixture() *CitySnapshot {
	base := time.Unix(1609459200, 0).UTC()
	return &CitySnapshot{
		Ookla: &OoklaColumns{
			TestID:         []int{10, 12, 11},
			UserID:         []int{3, 5, 3},
			City:           []string{"A", "A", "A"},
			ISP:            []string{"ISP-1", "ISP-2", "ISP-1"},
			Timestamp:      []time.Time{base, base.Add(90 * time.Second), base.Add(time.Hour)},
			Platform:       []device.Platform{device.Android, device.DesktopEthernet, device.IOS},
			Access:         []AccessType{AccessWiFi, AccessEthernet, AccessWiFi},
			HasRadioInfo:   []bool{true, false, false},
			Band:           []wifi.Band{wifi.Band5GHz, 0, 0},
			RSSI:           []float64{-55.5, 0, 0},
			MaxTheoretical: []float64{866.7, 0, 0},
			KernelMemMB:    []int{2048, 0, 0},
			Download:       []float64{93.25, 480.125, 1.5},
			Upload:         []float64{11.5, 22.75, 0.5},
			Latency:        []float64{14, 6.5, 120},
			TruthTier:      []int{2, 4, 1},
		},
		MLabRows: &MLabRowColumns{
			RowID:     []int{1, 2},
			ClientIP:  []string{"10.0.0.1", "10.0.0.1"},
			ServerIP:  []string{"192.0.2.7", "192.0.2.7"},
			City:      []string{"A", "A"},
			ISP:       []string{"ISP-1", "ISP-1"},
			ASN:       []int{64500, 64500},
			Timestamp: []time.Time{base, base.Add(20 * time.Second)},
			Direction: []MLabDirection{MLabDownload, MLabUpload},
			Speed:     []float64{60, 8},
			MinRTT:    []float64{11.1, 11},
			TruthTier: []int{3, 3},
		},
		MBA: &MBAColumns{
			UnitID:      []int{100, 101},
			State:       []string{"CA", "CA"},
			ISP:         []string{"ISP-3", "ISP-3"},
			CensusTract: []string{"06075010100", "06075010200"},
			Timestamp:   []time.Time{base.Add(1500 * time.Millisecond), base.Add(time.Minute)},
			Download:    []float64{97, 109},
			Upload:      []float64{9, 10},
			PlanDown:    []float64{100, 100},
			PlanUp:      []float64{10, 10},
			Tier:        []int{2, 2},
		},
		Android: &OoklaColumns{
			TestID:         []int{20, 21},
			UserID:         []int{8, 9},
			City:           []string{"A", "A"},
			ISP:            []string{"ISP-1", "ISP-1"},
			Timestamp:      []time.Time{base.Add(5 * time.Second), base.Add(6 * time.Second)},
			Platform:       []device.Platform{device.Android, device.Android},
			Access:         []AccessType{AccessWiFi, AccessWiFi},
			HasRadioInfo:   []bool{true, true},
			Band:           []wifi.Band{wifi.Band24GHz, wifi.Band5GHz},
			RSSI:           []float64{-70, -48.25},
			MaxTheoretical: []float64{72.2, 433.3},
			KernelMemMB:    []int{1024, 3072},
			Download:       []float64{21.5, 150},
			Upload:         []float64{4, 12.5},
			Latency:        []float64{30, 18},
			TruthTier:      []int{1, 3},
		},
	}
}

// TestSectionLayoutsPinned: today's encoders write the pinned bytes of
// every row-section layout, plain and zoned, and those bytes decode back
// to the fixture.
func TestSectionLayoutsPinned(t *testing.T) {
	snap := layoutFixture()
	for _, c := range []struct {
		name string
		hex  string
		enc  func() ([]byte, error)
	}{
		{"plain-v2", layoutPlainHex, func() ([]byte, error) {
			var buf bytes.Buffer
			err := WriteCitySnapshot(&buf, snap)
			return buf.Bytes(), err
		}},
		{"zoned-v3", layoutZonedHex, func() ([]byte, error) { return EncodeCitySnapshotZoned(snap, testZoneOptions(2)) }},
	} {
		data, err := c.enc()
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		want, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("%s: encode drifted from pinned bytes:\n got %s\nwant %s", c.name, hex.EncodeToString(data), c.hex)
		}
		got, err := DecodeCitySnapshot(want)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, snap) {
			t.Fatalf("%s: pinned bytes decoded to a different snapshot", c.name)
		}
	}
}
