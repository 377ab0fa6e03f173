// Package tcpmodel provides the TCP throughput substrate that makes the
// vendor-methodology comparison of the paper (§6.3) mechanistic rather than
// assumed. Two models are provided:
//
//   - An analytic model (Mathis et al.): steady-state throughput of a single
//     loss-limited TCP flow, MSS/RTT * sqrt(3/2) / sqrt(p).
//   - A discrete round-based AIMD simulator: N flows share a droptail
//     bottleneck; each round every flow submits a congestion window of
//     packets, the queue drops the overflow, and windows react (slow start,
//     congestion avoidance, multiplicative decrease). Receive windows cap
//     cwnd, which is how device memory limits throughput.
//
// The simulator reproduces the empirical facts the paper's vendor analysis
// rests on: a single TCP connection (M-Lab's NDT) cannot saturate a
// high-bandwidth-delay path in a 10-second test, while several parallel
// connections (Ookla's Speedtest) can; the shortfall grows with the
// provisioned rate.
package tcpmodel

import (
	"math"
	"time"

	"speedctx/internal/stats"
	"speedctx/internal/units"
)

// DefaultMSS is the Ethernet-path TCP maximum segment size in bytes.
const DefaultMSS = 1460

// MathisThroughput returns the steady-state throughput of a loss-limited
// TCP Reno flow per the Mathis model. lossRate must be > 0; rtt must be > 0.
func MathisThroughput(mss int, rtt time.Duration, lossRate float64) units.Mbps {
	if lossRate <= 0 || rtt <= 0 {
		return units.Mbps(math.Inf(1))
	}
	bytesPerSec := float64(mss) / rtt.Seconds() * math.Sqrt(1.5) / math.Sqrt(lossRate)
	return units.FromBytesPerSecond(bytesPerSec)
}

// WindowLimit returns the throughput ceiling imposed by a fixed receive
// window over the given RTT.
func WindowLimit(window units.Bytes, rtt time.Duration) units.Mbps {
	if rtt <= 0 {
		return units.Mbps(math.Inf(1))
	}
	return units.FromBytesPerSecond(float64(window) / rtt.Seconds())
}

// Path describes the network path a speed test runs over.
type Path struct {
	// Capacity is the bottleneck (shaped access-link) rate.
	Capacity units.Mbps
	// RTT is the round-trip time to the test server.
	RTT time.Duration
	// LossRate is the random per-packet loss probability on top of
	// queue-overflow drops (transmission errors, cross-traffic bursts).
	// Values >= 1 lose every packet.
	LossRate float64
	// BufferPackets is the droptail queue size at the bottleneck. Zero
	// selects a buffer of one bandwidth-delay product.
	BufferPackets int
	// RcvWindow caps each connection's window (receiver autotuning
	// limit). Zero means unlimited.
	RcvWindow units.Bytes
	// MSS is the segment size; zero selects DefaultMSS.
	MSS int
}

func (p *Path) mss() int {
	if p.MSS <= 0 {
		return DefaultMSS
	}
	return p.MSS
}

// BDPPackets returns the path's bandwidth-delay product in packets.
func (p *Path) BDPPackets() int {
	pkts := p.Capacity.BytesPerSecond() * p.RTT.Seconds() / float64(p.mss())
	if pkts < 1 {
		return 1
	}
	return int(pkts)
}

// CongestionControl selects the sender's congestion response.
type CongestionControl int

const (
	// Reno is AIMD loss-based control: halve on loss, +1 MSS per RTT
	// otherwise. It is what makes single-connection tests under-report
	// on lossy high-BDP paths.
	Reno CongestionControl = iota
	// BBR approximates model-based control: the flow paces at its
	// bandwidth estimate (its fair share of the bottleneck) and does not
	// back off on random loss. It implements the paper's recommendation
	// that challenge-grade tests "maximize the throughput of the
	// measured path" even with one connection.
	BBR
)

func (c CongestionControl) String() string {
	if c == BBR {
		return "BBR"
	}
	return "Reno"
}

// TestSpec describes the measurement methodology: how many parallel
// connections, how long, and how much ramp-up the reported average excludes.
type TestSpec struct {
	// Connections is the number of parallel TCP connections. Ookla uses
	// several; NDT uses exactly one.
	Connections int
	// Duration is the total transfer time.
	Duration time.Duration
	// WarmupDiscard excludes the initial ramp from the reported average
	// (Ookla discards it; NDT's 10-second average includes slow start).
	WarmupDiscard time.Duration
	// InitialWindow is the initial congestion window in packets; zero
	// selects 10 (RFC 6928).
	InitialWindow int
	// Congestion selects the sender's control law (default Reno).
	Congestion CongestionControl
}

// OoklaSpec is the multi-connection methodology: 8 parallel connections over
// 15 seconds with the first 3 seconds discarded from the average.
func OoklaSpec() TestSpec {
	return TestSpec{Connections: 8, Duration: 15 * time.Second, WarmupDiscard: 3 * time.Second}
}

// NDTSpec is M-Lab's single-connection methodology: one connection, a
// 10-second average including slow start.
func NDTSpec() TestSpec {
	return TestSpec{Connections: 1, Duration: 10 * time.Second}
}

// Result summarizes one simulated transfer.
type Result struct {
	// Goodput is the reported throughput: delivered payload over the
	// measured (post-warmup) interval.
	Goodput units.Mbps
	// PerConnection is each connection's contribution.
	PerConnection []units.Mbps
	// Rounds is the number of RTT rounds simulated.
	Rounds int
	// LossEvents counts rounds in which at least one connection lost a
	// packet.
	LossEvents int
	// Utilization is Goodput / path capacity.
	Utilization float64
}

type flow struct {
	cwnd      float64 // congestion window, packets
	ssthresh  float64
	slowStart bool
	delivered float64 // measured-interval packets
	toLoss    float64 // packets until this flow's next random loss
}

// Simulate runs the round-based AIMD model of spec over path, drawing loss
// randomness from rng. It is deterministic for a given seed.
func Simulate(path Path, spec TestSpec, rng *stats.RNG) Result {
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
		bufferPkts = capacityPkts // one BDP of buffer
	}
	rwndPkts := math.Inf(1)
	if path.RcvWindow > 0 {
		rwndPkts = float64(path.RcvWindow) / float64(mss)
		if rwndPkts < 1 {
			rwndPkts = 1
		}
	}

	// Random loss is sampled by exponential skip-ahead instead of a
	// per-round Bernoulli draw. Packets are lost independently with
	// probability p, so the packet count to a flow's next random loss is
	// geometric; its continuous counterpart is exponential with hazard
	// -ln(1-p) per packet. A round of cwnd packets loses iff that count
	// falls below cwnd, which happens with probability exactly
	// 1-(1-p)^cwnd, and memorylessness makes the residual after a clean
	// round a fresh draw of the same law. So the transfer is identical in
	// distribution to flipping a 1-(1-p)^cwnd coin per flow-round, at one
	// exponential draw per loss instead of one Exp and one uniform per
	// flow-round. Rounds that lose to queue overflow, and BBR flows,
	// never consult the count, exactly as they never drew the coin.
	hazard := 0.0
	if path.LossRate >= 1 {
		hazard = math.Inf(1) // every packet lost: every round loses
	} else if path.LossRate > 0 {
		hazard = -math.Log1p(-path.LossRate)
	}
	randomLoss := hazard > 0 && spec.Congestion != BBR

	flows := make([]flow, nconn)
	for i := range flows {
		flows[i] = flow{cwnd: iw, ssthresh: math.Inf(1), slowStart: true}
		if randomLoss {
			flows[i].toLoss = rng.Exponential(1) / hazard
		}
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
		// Deliverable fraction this round: the queue drains at
		// capacity, so delivered payload is bounded by capacityPkts,
		// and overflow beyond capacity+buffer is dropped.
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
				// Model-based control: after startup the flow
				// paces at its bottleneck share; random loss
				// does not trigger backoff, and overflow only
				// trims toward the fair share.
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
			if !lost && randomLoss {
				if f.toLoss < f.cwnd {
					lost = true
					f.toLoss = rng.Exponential(1) / hazard
				} else {
					f.toLoss -= f.cwnd
				}
			}
			if lost {
				lossThisRound = true
				// cwnd is positive and finite, so a plain compare is
				// math.Max without its NaN and signed-zero handling.
				f.ssthresh = f.cwnd / 2
				if f.ssthresh < 2 {
					f.ssthresh = 2
				}
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
				// Slow start overshooting the pipe triggers
				// loss next round via overflow; also exit once
				// we exceed the BDP share.
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
