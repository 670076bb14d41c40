package main

import (
	"testing"
)

func TestProbeScalesTimingsToTheReferenceSpeed(t *testing.T) {
	// A host at half the reference speed: the probe takes twice as long,
	// so every time halves and the rate doubles.
	p := &probe{ms: []float64{2 * probeRefMS, 2.2 * probeRefMS, 1.8 * probeRefMS}}
	res := &Result{Metrics: map[string]Metric{
		"wall_s":       {4, "s"},
		"setup_s":      {0.02, "s"},
		"req_p50_ms":   {4000, "ms"},
		"req_per_s":    {0.25, "1/s"},
		"peak_rss_mb":  {120, "MB"},
		"energy_ratio": {0.65, "ratio"},
	}}
	notes := map[string]any{}
	p.normalize(res, notes)
	want := map[string]float64{"wall_s": 2, "setup_s": 0.01, "req_p50_ms": 2000, "req_per_s": 0.5,
		"peak_rss_mb": 120, "energy_ratio": 0.65}
	for name, v := range want {
		if got := res.Metrics[name].Value; !closeTo(got, v) {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	measured := notes["measured"].(map[string]float64)
	if measured["wall_s"] != 4 || measured["req_per_s"] != 0.25 || len(measured) != 4 {
		t.Errorf("notes keep %v, want the four measured timings", measured)
	}
	if notes["speed_scale"] != 0.5 {
		t.Errorf("speed_scale = %v, want 0.5", notes["speed_scale"])
	}
}

func TestProbeDoesTheSameWorkEveryTime(t *testing.T) {
	p := newProbe()
	p.measure()
	first := append([]int(nil), p.keys...)
	p.measure()
	for i := range first {
		if p.keys[i] != first[i] {
			t.Fatal("the probe's keys differ between measurements")
		}
	}
	if len(p.ms) != 2 || p.ms[0] <= 0 || p.ms[1] <= 0 {
		t.Errorf("probe times %v", p.ms)
	}
}
