package tcpmodel

import (
	"math"
	"testing"
	"time"

	"speedctx/internal/stats"
	"speedctx/internal/units"
)

func TestMathisThroughput(t *testing.T) {
	// MSS 1460, RTT 20ms, p=1e-4: 1460/0.02 * sqrt(1.5)/0.01 B/s
	want := units.FromBytesPerSecond(1460.0 / 0.02 * math.Sqrt(1.5) / math.Sqrt(1e-4))
	got := MathisThroughput(1460, 20*time.Millisecond, 1e-4)
	if math.Abs(float64(got-want)) > 1e-9 {
		t.Errorf("Mathis = %v, want %v", got, want)
	}
	// Quadrupling loss halves throughput.
	half := MathisThroughput(1460, 20*time.Millisecond, 4e-4)
	if math.Abs(float64(half)*2-float64(got)) > 1e-6 {
		t.Errorf("Mathis scaling broken: %v vs %v", half, got)
	}
	if !math.IsInf(float64(MathisThroughput(1460, time.Second, 0)), 1) {
		t.Error("zero loss should be unbounded")
	}
}

func TestWindowLimit(t *testing.T) {
	// 1 MiB window at 100ms RTT = 10 MiB/s ~= 83.9 Mbps.
	got := WindowLimit(units.MiB, 100*time.Millisecond)
	want := units.FromBytesPerSecond(1048576 / 0.1)
	if math.Abs(float64(got-want)) > 1e-9 {
		t.Errorf("WindowLimit = %v, want %v", got, want)
	}
	if !math.IsInf(float64(WindowLimit(units.MiB, 0)), 1) {
		t.Error("zero RTT should be unbounded")
	}
}

func TestSimulateLowRateSaturates(t *testing.T) {
	// A single flow easily fills a 25 Mbps link in 10 s.
	path := Path{Capacity: 25, RTT: 20 * time.Millisecond, LossRate: 1e-5}
	res := Simulate(path, NDTSpec(), stats.NewRNG(1))
	if res.Utilization < 0.85 {
		t.Errorf("25 Mbps single-flow utilization = %v, want > 0.85", res.Utilization)
	}
	if res.Goodput > path.Capacity {
		t.Errorf("goodput %v exceeds capacity", res.Goodput)
	}
}

func TestSingleVsMultiConnectionGap(t *testing.T) {
	// The core §6.3 mechanism: at high provisioned rates, one connection
	// underestimates while eight saturate. One seed pair is one draw of a
	// wide ratio distribution (single seeds range ~1.8-10.7), so the band
	// is asserted on the median over 64 consecutive seed pairs; the
	// ordering and the multi-connection saturation hold on every pair.
	path := Path{Capacity: 800, RTT: 25 * time.Millisecond, LossRate: 3e-5}
	ratios := make([]float64, 0, 64)
	for k := int64(0); k < 64; k++ {
		ndt := Simulate(path, NDTSpec(), stats.NewRNG(2+k))
		ookla := Simulate(path, OoklaSpec(), stats.NewRNG(3+k))
		if ookla.Utilization < 0.85 {
			t.Errorf("seed pair %d: multi-connection utilization = %v, want > 0.85", k, ookla.Utilization)
		}
		if ndt.Goodput >= ookla.Goodput {
			t.Errorf("seed pair %d: single connection (%v) should lag multi (%v)", k, ndt.Goodput, ookla.Goodput)
		}
		ratios = append(ratios, float64(ookla.Goodput)/float64(ndt.Goodput))
	}
	if m := stats.Median(ratios); m < 1.2 || m > 4 {
		t.Errorf("median vendor gap ratio over 64 seed pairs = %v, want within [1.2, 4]", m)
	}
}

func TestGapGrowsWithCapacity(t *testing.T) {
	gap := func(capacity units.Mbps) float64 {
		path := Path{Capacity: capacity, RTT: 25 * time.Millisecond, LossRate: 3e-5}
		ndt := Simulate(path, NDTSpec(), stats.NewRNG(4))
		ookla := Simulate(path, OoklaSpec(), stats.NewRNG(5))
		return float64(ookla.Goodput) / float64(ndt.Goodput)
	}
	low, high := gap(50), gap(1200)
	if high <= low {
		t.Errorf("gap should grow with capacity: %v at 50 Mbps vs %v at 1200 Mbps", low, high)
	}
}

func TestReceiveWindowCapsThroughput(t *testing.T) {
	// 640 KiB window at 25 ms RTT caps near 210 Mbps even on a gigabit
	// path — the Figure 9d memory mechanism.
	path := Path{Capacity: 1200, RTT: 25 * time.Millisecond, LossRate: 1e-6,
		RcvWindow: 640 * units.KiB}
	res := Simulate(path, OoklaSpec(), stats.NewRNG(6))
	limit := WindowLimit(8*640*units.KiB, 25*time.Millisecond)
	if float64(res.Goodput) > float64(limit)*1.05 {
		t.Errorf("goodput %v exceeds 8x window limit %v", res.Goodput, limit)
	}
	single := Simulate(path, NDTSpec(), stats.NewRNG(7))
	singleLimit := WindowLimit(640*units.KiB, 25*time.Millisecond)
	if float64(single.Goodput) > float64(singleLimit)*1.05 {
		t.Errorf("single goodput %v exceeds window limit %v", single.Goodput, singleLimit)
	}
	if single.Utilization > 0.3 {
		t.Errorf("tight window on fat path should leave low utilization, got %v", single.Utilization)
	}
}

func TestWarmupDiscardRaisesAverage(t *testing.T) {
	// Loss-free so the two runs share one trajectory; with random losses
	// a late loss event can legitimately make the post-warmup window the
	// worse one.
	path := Path{Capacity: 400, RTT: 25 * time.Millisecond}
	withWarmup := Simulate(path, TestSpec{Connections: 1, Duration: 10 * time.Second,
		WarmupDiscard: 3 * time.Second}, stats.NewRNG(8))
	without := Simulate(path, TestSpec{Connections: 1, Duration: 10 * time.Second},
		stats.NewRNG(8))
	if withWarmup.Goodput < without.Goodput {
		t.Errorf("discarding warmup should not lower the average: %v vs %v",
			withWarmup.Goodput, without.Goodput)
	}
}

func TestSimulateDeterminism(t *testing.T) {
	path := Path{Capacity: 300, RTT: 20 * time.Millisecond, LossRate: 1e-4}
	a := Simulate(path, OoklaSpec(), stats.NewRNG(9))
	b := Simulate(path, OoklaSpec(), stats.NewRNG(9))
	if a.Goodput != b.Goodput || a.LossEvents != b.LossEvents {
		t.Error("simulation not deterministic for equal seeds")
	}
}

func TestSimulateDefaults(t *testing.T) {
	// Zero RTT, zero connections, zero initial window: defaults apply,
	// no panic, positive goodput.
	res := Simulate(Path{Capacity: 100}, TestSpec{Duration: 2 * time.Second}, stats.NewRNG(10))
	if res.Goodput <= 0 {
		t.Errorf("goodput = %v", res.Goodput)
	}
	if len(res.PerConnection) != 1 {
		t.Errorf("connections = %d", len(res.PerConnection))
	}
}

func TestPerConnectionSumsToGoodput(t *testing.T) {
	path := Path{Capacity: 500, RTT: 25 * time.Millisecond, LossRate: 2e-5}
	res := Simulate(path, OoklaSpec(), stats.NewRNG(11))
	sum := 0.0
	for _, c := range res.PerConnection {
		sum += float64(c)
	}
	if math.Abs(sum-float64(res.Goodput)) > 1e-6*math.Max(1, sum) {
		t.Errorf("per-connection sum %v != goodput %v", sum, res.Goodput)
	}
}

func TestBDPPackets(t *testing.T) {
	p := Path{Capacity: 100, RTT: 20 * time.Millisecond}
	// 100 Mbps * 20 ms = 250 KB = ~171 packets.
	bdp := 100e6 / 8 * 0.02 / 1460
	want := int(bdp)
	if got := p.BDPPackets(); got != want {
		t.Errorf("BDPPackets = %d, want %d", got, want)
	}
	tiny := Path{Capacity: 0.001, RTT: time.Millisecond}
	if tiny.BDPPackets() != 1 {
		t.Error("BDP floor should be 1 packet")
	}
}

func TestMathisMatchesSimulation(t *testing.T) {
	// On a path where random loss (not capacity) is the binding
	// constraint, the simulator should land within a factor ~2 of the
	// analytic Mathis rate.
	lossRate := 2e-4
	path := Path{Capacity: 10000, RTT: 20 * time.Millisecond, LossRate: lossRate}
	spec := TestSpec{Connections: 1, Duration: 60 * time.Second, WarmupDiscard: 5 * time.Second}
	res := Simulate(path, spec, stats.NewRNG(12))
	analytic := MathisThroughput(DefaultMSS, 20*time.Millisecond, lossRate)
	ratio := float64(res.Goodput) / float64(analytic)
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("sim %v vs Mathis %v (ratio %v) out of range", res.Goodput, analytic, ratio)
	}
}

func TestSpecs(t *testing.T) {
	o, n := OoklaSpec(), NDTSpec()
	if o.Connections <= n.Connections {
		t.Error("Ookla should use more connections than NDT")
	}
	if n.Connections != 1 {
		t.Errorf("NDT connections = %d, want 1", n.Connections)
	}
	if n.WarmupDiscard != 0 {
		t.Error("NDT average includes slow start")
	}
	if o.WarmupDiscard == 0 {
		t.Error("Ookla discards ramp-up")
	}
}

func TestBBRSingleConnectionSaturates(t *testing.T) {
	// The paper's recommendation: a test methodology should maximize
	// path throughput. A single BBR-style flow ignores random loss and
	// fills the pipe a single Reno flow cannot.
	path := Path{Capacity: 1200, RTT: 25 * time.Millisecond, LossRate: 3e-5}
	reno := Simulate(path, TestSpec{Connections: 1, Duration: 10 * time.Second}, stats.NewRNG(20))
	bbr := Simulate(path, TestSpec{Connections: 1, Duration: 10 * time.Second,
		Congestion: BBR}, stats.NewRNG(20))
	if bbr.Utilization < 0.85 {
		t.Errorf("BBR single-flow utilization = %v, want > 0.85", bbr.Utilization)
	}
	if float64(bbr.Goodput) < 1.5*float64(reno.Goodput) {
		t.Errorf("BBR (%v) should clearly beat Reno (%v) at 1200 Mbps", bbr.Goodput, reno.Goodput)
	}
	if bbr.Goodput > path.Capacity {
		t.Errorf("BBR goodput %v exceeds capacity", bbr.Goodput)
	}
}

func TestBBRRespectsReceiveWindow(t *testing.T) {
	path := Path{Capacity: 1200, RTT: 25 * time.Millisecond,
		RcvWindow: 640 * units.KiB}
	res := Simulate(path, TestSpec{Connections: 1, Duration: 5 * time.Second,
		Congestion: BBR}, stats.NewRNG(21))
	limit := WindowLimit(640*units.KiB, 25*time.Millisecond)
	if float64(res.Goodput) > float64(limit)*1.05 {
		t.Errorf("BBR goodput %v exceeds window limit %v", res.Goodput, limit)
	}
}

func TestBBRMultiFlowSharesFairly(t *testing.T) {
	path := Path{Capacity: 800, RTT: 20 * time.Millisecond, LossRate: 1e-4}
	res := Simulate(path, TestSpec{Connections: 4, Duration: 8 * time.Second,
		WarmupDiscard: time.Second, Congestion: BBR}, stats.NewRNG(22))
	if res.Utilization < 0.85 {
		t.Errorf("4-flow BBR utilization = %v", res.Utilization)
	}
	lo, hi := res.PerConnection[0], res.PerConnection[0]
	for _, c := range res.PerConnection {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if float64(hi) > 1.5*float64(lo) {
		t.Errorf("BBR shares unfair: min %v max %v", lo, hi)
	}
}

func TestCongestionControlString(t *testing.T) {
	if Reno.String() != "Reno" || BBR.String() != "BBR" {
		t.Error("congestion control strings")
	}
}
