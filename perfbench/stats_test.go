package main

import (
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending: the functions must sort
	}
	return s
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		wantV   float64
		wantPct float64
	}{
		{1000, 990, 99}, // 10 samples above the 990th
		{999, 900, 90},  // p99 would leave 9 above; p90 leaves 99
		{100, 90, 90},   // p90 leaves exactly 10
		{99, 75, 75},    // p90 would leave 9
		{40, 30, 75},    // p75 leaves exactly 10
		{39, 20, 50},    // p75 would leave 9; the median leaves 19
		{12, 6.5, 50},   // too few for any tail: the median
		{1, 1, 50},
	} {
		v, pct := tail(seq(c.n))
		if v != c.wantV || pct != c.wantPct {
			t.Errorf("tail of %d samples = %v at p%v, want %v at p%v", c.n, v, pct, c.wantV, c.wantPct)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(values, n=4) for each input.
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5}, 1.0, 4.5},
		{[]float64{2.5, 7}, 1.375, 8.125},
	} {
		q1, q3 := quartiles(c.in)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median of 1..4 = %v", m)
	}
	if m := median(seq(5)); m != 3 {
		t.Errorf("median of 1..5 = %v", m)
	}
}

func TestMetricNameValidity(t *testing.T) {
	for _, ok := range []string{"wall_s", "sim.opt_mips", "placement.ms_per_node", "9lives", "a-b.c_d"} {
		if err := validMetric(ok, "ms"); err != nil {
			t.Errorf("%s rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/name", "pct%", "émoji",
		"x2345678901234567890123456789012345678901234567890123456789012345"} {
		if validMetric(bad, "ms") == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, u := range []string{"", "has space", "seventeen_letters"} {
		if validMetric("ok", u) == nil {
			t.Errorf("unit %q accepted", u)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if err := validMetric(d.Name, d.Unit); err != nil {
			t.Error(err)
		}
		if seen[d.Name] {
			t.Errorf("metric %s catalogued twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
}

func TestFingerprintsRefuseOtherHosts(t *testing.T) {
	a := Fingerprint{CPU: "x", NProc: 2, GOMAXPROCS: 2, Go: "go1", Bench: "b", Commit: "tree:1"}
	b := a
	b.Commit = "tree:2"
	if err := a.comparable(b); err != nil {
		t.Errorf("two commits on one host refused: %v", err)
	}
	for _, mut := range []func(*Fingerprint){
		func(f *Fingerprint) { f.CPU = "y" },
		func(f *Fingerprint) { f.NProc = 4 },
		func(f *Fingerprint) { f.GOMAXPROCS = 1 },
		func(f *Fingerprint) { f.Go = "go2" },
		func(f *Fingerprint) { f.Bench = "c" },
	} {
		c := a
		mut(&c)
		if a.comparable(c) == nil {
			t.Errorf("%+v accepted against %+v", c, a)
		}
		recs := []Record{{Fingerprint: a, Workload: "sweep"}, {Fingerprint: c, Workload: "sweep"}}
		if _, err := summarize(recs); err == nil {
			t.Errorf("summarize pooled %+v with %+v", c, a)
		}
	}
}
