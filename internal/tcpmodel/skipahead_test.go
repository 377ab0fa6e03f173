package tcpmodel

import (
	"math"
	"testing"
	"time"

	"speedctx/internal/stats"
	"speedctx/internal/units"
)

// simulateBernoulli is the reference sampler Simulate's exponential
// skip-ahead replaced: it flips a fresh 1-(1-p)^cwnd coin for every Reno
// flow in every round that reaches the random-loss check. Everything else
// is Simulate's round loop verbatim, so any distributional difference
// between the two is the loss sampler's.
func simulateBernoulli(path Path, spec TestSpec, rng *stats.RNG) Result {
	mss := path.mss()
	rtt := path.RTT
	if rtt <= 0 {
		rtt = 20 * time.Millisecond
	}
	rounds := int(spec.Duration / rtt)
	if rounds < 1 {
		rounds = 1
	}
	warmupRounds := int(spec.WarmupDiscard / rtt)
	if warmupRounds >= rounds {
		warmupRounds = rounds - 1
	}
	nconn := spec.Connections
	if nconn < 1 {
		nconn = 1
	}
	iw := float64(spec.InitialWindow)
	if iw <= 0 {
		iw = 10
	}

	capacityPkts := path.Capacity.BytesPerSecond() * rtt.Seconds() / float64(mss)
	bufferPkts := float64(path.BufferPackets)
	if bufferPkts <= 0 {
		bufferPkts = capacityPkts
	}
	rwndPkts := math.Inf(1)
	if path.RcvWindow > 0 {
		rwndPkts = float64(path.RcvWindow) / float64(mss)
		if rwndPkts < 1 {
			rwndPkts = 1
		}
	}

	flows := make([]flow, nconn)
	for i := range flows {
		flows[i] = flow{cwnd: iw, ssthresh: math.Inf(1), slowStart: true}
	}
	logKeep := 0.0
	if path.LossRate > 0 {
		logKeep = math.Log1p(-path.LossRate)
	}

	res := Result{Rounds: rounds}
	for r := 0; r < rounds; r++ {
		total := 0.0
		for i := range flows {
			if flows[i].cwnd > rwndPkts {
				flows[i].cwnd = rwndPkts
			}
			total += flows[i].cwnd
		}
		fit := capacityPkts + bufferPkts
		overflowLoss := total > fit
		deliverFrac := 1.0
		if total > capacityPkts {
			deliverFrac = capacityPkts / total
		}

		lossThisRound := false
		for i := range flows {
			f := &flows[i]
			if r >= warmupRounds {
				f.delivered += f.cwnd * deliverFrac
			}
			if spec.Congestion == BBR {
				fairShare := capacityPkts / float64(nconn)
				if f.slowStart {
					f.cwnd *= 2
					if f.cwnd >= fairShare {
						f.cwnd = fairShare * 1.05
						f.slowStart = false
					}
				} else if overflowLoss {
					lossThisRound = true
					f.cwnd = math.Max(fairShare, 2)
				}
				if f.cwnd > rwndPkts {
					f.cwnd = rwndPkts
				}
				continue
			}
			lost := overflowLoss
			if !lost && path.LossRate > 0 {
				pLoss := 1 - math.Exp(f.cwnd*logKeep)
				lost = rng.Float64() < pLoss
			}
			if lost {
				lossThisRound = true
				f.ssthresh = math.Max(f.cwnd/2, 2)
				f.cwnd = f.ssthresh
				f.slowStart = false
				continue
			}
			if f.slowStart {
				f.cwnd *= 2
				if f.cwnd >= f.ssthresh {
					f.cwnd = f.ssthresh
					f.slowStart = false
				}
				if f.cwnd > fit/float64(nconn) {
					f.slowStart = false
				}
			} else {
				f.cwnd++
			}
			if f.cwnd > rwndPkts {
				f.cwnd = rwndPkts
			}
		}
		if lossThisRound {
			res.LossEvents++
		}
	}

	measuredRounds := rounds - warmupRounds
	measured := time.Duration(measuredRounds) * rtt
	res.PerConnection = make([]units.Mbps, nconn)
	totalPkts := 0.0
	for i, f := range flows {
		res.PerConnection[i] = units.FromBytesPerSecond(f.delivered * float64(mss) / measured.Seconds())
		totalPkts += f.delivered
	}
	res.Goodput = units.FromBytesPerSecond(totalPkts * float64(mss) / measured.Seconds())
	if path.Capacity > 0 {
		res.Utilization = float64(res.Goodput) / float64(path.Capacity)
	}
	return res
}

// gofSeeds is the fixed seed count of the goodness-of-fit comparison.
const gofSeeds = 2000

// gofCritical is the two-sample KS critical value for n = m = gofSeeds at
// α = 0.001: c(α)·sqrt((n+m)/(n·m)) with c(α) = sqrt(-ln(α/2)/2) ≈ 1.949.
// Both samples come from fixed seeds, so the verdict is deterministic;
// with discrete statistics (LossEvents) the test is conservative.
var gofCritical = math.Sqrt(-math.Log(0.001/2)/2) * math.Sqrt(2.0/gofSeeds)

// TestSkipAheadMatchesBernoulli is the goodness-of-fit gate of the
// exponential skip-ahead: over gofSeeds fixed seeds on three paths — a
// loss-limited single NDT flow, the 8-flow Ookla spec on the same path,
// and a receive-window-capped path where cwnd pins at the cap — the loss
// round counts and goodputs of Simulate and the per-round Bernoulli
// reference must be indistinguishable by a two-sample KS test.
func TestSkipAheadMatchesBernoulli(t *testing.T) {
	fat := Path{Capacity: 800, RTT: 25 * time.Millisecond, LossRate: 3e-5}
	capped := Path{Capacity: 1200, RTT: 25 * time.Millisecond, LossRate: 3e-5,
		RcvWindow: 640 * units.KiB}
	cases := []struct {
		name string
		path Path
		spec TestSpec
	}{
		{"ndt-800", fat, NDTSpec()},
		{"ookla-800", fat, OoklaSpec()},
		{"ookla-rwnd", capped, OoklaSpec()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var loss, refLoss, good, refGood []float64
			for s := int64(0); s < gofSeeds; s++ {
				got := Simulate(c.path, c.spec, stats.NewRNG(1000+s))
				ref := simulateBernoulli(c.path, c.spec, stats.NewRNG(1000+s))
				loss = append(loss, float64(got.LossEvents))
				refLoss = append(refLoss, float64(ref.LossEvents))
				good = append(good, float64(got.Goodput))
				refGood = append(refGood, float64(ref.Goodput))
			}
			for _, m := range []struct {
				name     string
				got, ref []float64
			}{{"LossEvents", loss, refLoss}, {"Goodput", good, refGood}} {
				ks := stats.KolmogorovSmirnov(m.got, m.ref)
				t.Logf("%s: KS D = %.4f (critical %.4f)", m.name, ks.Statistic, gofCritical)
				if ks.Statistic > gofCritical {
					t.Errorf("%s: KS D = %.4f > critical %.4f (p = %.2g)",
						m.name, ks.Statistic, gofCritical, ks.PValue)
				}
			}
		})
	}
}

// TestSkipAheadDegenerateLossRates pins the loss rates where neither
// sampler is random: p = 0 never loses and draws nothing, and p = 1 loses
// every Reno round, so both must equal the reference exactly. A rate
// above 1 (not a probability) is treated as 1 rather than as no loss.
func TestSkipAheadDegenerateLossRates(t *testing.T) {
	for _, spec := range []TestSpec{NDTSpec(), OoklaSpec(), {Connections: 2,
		Duration: 5 * time.Second, Congestion: BBR}} {
		for _, p := range []float64{0, 1} {
			path := Path{Capacity: 500, RTT: 25 * time.Millisecond, LossRate: p}
			got := Simulate(path, spec, stats.NewRNG(31))
			ref := simulateBernoulli(path, spec, stats.NewRNG(31))
			if got.Goodput != ref.Goodput || got.LossEvents != ref.LossEvents {
				t.Errorf("%v p=%v: got (%v, %d losses), reference (%v, %d losses)",
					spec.Congestion, p, got.Goodput, got.LossEvents, ref.Goodput, ref.LossEvents)
			}
			if p == 1 && spec.Congestion == Reno && got.LossEvents != got.Rounds {
				t.Errorf("p=1: %d loss rounds of %d", got.LossEvents, got.Rounds)
			}
		}
		one := Simulate(Path{Capacity: 500, RTT: 25 * time.Millisecond, LossRate: 1}, spec, stats.NewRNG(32))
		over := Simulate(Path{Capacity: 500, RTT: 25 * time.Millisecond, LossRate: 2}, spec, stats.NewRNG(33))
		if one.Goodput != over.Goodput || one.LossEvents != over.LossEvents {
			t.Errorf("%v: p=2 (%v, %d) differs from p=1 (%v, %d)",
				spec.Congestion, over.Goodput, over.LossEvents, one.Goodput, one.LossEvents)
		}
	}
}
