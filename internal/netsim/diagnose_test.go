package netsim

import (
	"testing"
	"time"

	"speedctx/internal/device"
	"speedctx/internal/stats"
	"speedctx/internal/wifi"
)

func diagScenario(t *testing.T) Scenario {
	t.Helper()
	return Scenario{
		Plan: planA(t, 6), // 1200/35
		Access: AccessLink{
			DownCapacity: 1368, UpCapacity: 40,
			RTT: 20 * time.Millisecond, LossRate: 1e-6,
		},
		Home:   HomeLink{Ethernet: true},
		Device: device.Device{Platform: device.DesktopEthernet},
		Vendor: VendorOokla,
		Hour:   3,
	}
}

func TestDiagnoseAccessBound(t *testing.T) {
	sc := diagScenario(t)
	sc.Access.DownCapacity = 200 // degraded plan delivery
	d := Diagnose(sc)
	if d.Bottleneck != BottleneckAccess {
		t.Errorf("bottleneck = %v (%+v)", d.Bottleneck, d)
	}
}

func TestDiagnoseWiFiBound(t *testing.T) {
	sc := diagScenario(t)
	sc.Home = HomeLink{WiFi: wifi.Link{Band: wifi.Band24GHz, RSSI: -60, Contention: 0.5}}
	sc.Device = device.Device{Platform: device.Android, KernelMemMB: 8192}
	d := Diagnose(sc)
	if d.Bottleneck != BottleneckWiFi {
		t.Errorf("bottleneck = %v (%+v)", d.Bottleneck, d)
	}
	if d.HomeCap >= d.AccessCap {
		t.Errorf("home cap %v should be under access cap %v", d.HomeCap, d.AccessCap)
	}
}

func TestDiagnoseDeviceBound(t *testing.T) {
	sc := diagScenario(t)
	sc.Home = HomeLink{WiFi: wifi.Link{Band: wifi.Band5GHz, RSSI: -40, Contention: 0.05}}
	sc.Device = device.Device{Platform: device.Android, KernelMemMB: 1024}
	d := Diagnose(sc)
	if d.Bottleneck != BottleneckDevice {
		t.Errorf("bottleneck = %v (%+v)", d.Bottleneck, d)
	}
}

func TestDiagnoseMethodologyBound(t *testing.T) {
	sc := diagScenario(t)
	sc.Vendor = VendorNDT
	sc.Access.LossRate = 1e-4 // Mathis cap ~110 Mbps at 20 ms
	d := Diagnose(sc)
	if d.Bottleneck != BottleneckMethodology {
		t.Errorf("bottleneck = %v (%+v)", d.Bottleneck, d)
	}
	// At moderate loss, Ookla's 8 connections lift the methodology
	// ceiling past the link. (At very high loss even 8 connections stay
	// Mathis-bound, which the model correctly reports.)
	sc.Vendor = VendorOokla
	sc.Access.LossRate = 2e-5
	d = Diagnose(sc)
	if d.Bottleneck == BottleneckMethodology {
		t.Errorf("multi-connection test should not be methodology-bound at moderate loss (%+v)", d)
	}
}

func TestDiagnoseZeroLossUnbounded(t *testing.T) {
	sc := diagScenario(t)
	sc.Access.LossRate = 0
	d := Diagnose(sc)
	if d.Bottleneck == BottleneckMethodology {
		t.Errorf("loss-free path cannot be methodology-bound (%+v)", d)
	}
}

func TestDiagnoseMatchesSimulation(t *testing.T) {
	// The diagnosis should predict the ballpark of the simulated
	// measurement: the binding cap is within ~2x of the realized
	// download for a spread of scenarios. Each case runs 64 consecutive
	// seeds and asserts the band on the median ratio. The loss-limited
	// single-connection case spreads ~0.7-2.4 across seeds, so one seed
	// says little; the other two hold the band on every seed as well.
	cases := []struct {
		sc      Scenario
		perSeed bool
	}{
		{diagScenario(t), true},
		{func() Scenario {
			sc := diagScenario(t)
			sc.Home = HomeLink{WiFi: wifi.Link{Band: wifi.Band24GHz, RSSI: -55, Contention: 0.4}}
			sc.Device = device.Device{Platform: device.Android, KernelMemMB: 8192}
			return sc
		}(), true},
		{func() Scenario {
			sc := diagScenario(t)
			sc.Vendor = VendorNDT
			sc.Access.LossRate = 5e-5
			return sc
		}(), false},
	}
	for i, c := range cases {
		d := Diagnose(c.sc)
		binding := d.AccessCap
		switch d.Bottleneck {
		case BottleneckWiFi:
			binding = d.HomeCap
		case BottleneckDevice:
			binding = d.DeviceCap
		case BottleneckMethodology:
			binding = d.MethodologyCap
		}
		ratios := make([]float64, 0, 64)
		for k := 0; k < 64; k++ {
			m := Run(c.sc, stats.NewRNG(int64(100+i+k)))
			ratio := float64(m.Download) / float64(binding)
			if c.perSeed && (ratio < 0.3 || ratio > 1.5) {
				t.Errorf("case %d seed %d (%v): measured %v vs binding cap %v (ratio %v)",
					i, 100+i+k, d.Bottleneck, m.Download, binding, ratio)
			}
			ratios = append(ratios, ratio)
		}
		if m := stats.Median(ratios); m < 0.3 || m > 1.5 {
			t.Errorf("case %d (%v): median measured/binding-cap ratio over 64 seeds = %v, want within [0.3, 1.5]",
				i, d.Bottleneck, m)
		}
	}
}

func TestBottleneckStrings(t *testing.T) {
	for _, b := range []Bottleneck{BottleneckAccess, BottleneckWiFi, BottleneckDevice, BottleneckMethodology} {
		if b.String() == "" {
			t.Errorf("bottleneck %d has no name", b)
		}
	}
}
