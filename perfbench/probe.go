package main

import (
	"crypto/sha256"
	"math/rand"
	"sort"
	"time"
)

// The host the benchmark runs on is a few vCPUs of a shared machine
// whose speed drifts by 20–30% over minutes: the same sweep, run back to
// back for nine minutes, had 40-second medians from 2.93 s to 3.68 s
// (quartile spread 0.13 of the median). A run's medians inherit that
// drift, so two runs of the same code disagree by more than a change
// worth detecting.
//
// probe measures the host's speed next to the jobs. It times a fixed
// task that uses none of the repository's code (sorting and hashing,
// about 180 ms) before every job and once after the last, while nothing
// else runs. The untraced run's timings are reported at a reference
// speed: each is scaled by probeRefMS over the run's median probe. A
// change to the program moves the job's time and not the probe's, so it
// shows in full. The measured values are kept in the run's notes.
//
// In that nine-minute series, a 100 ms probe of sorting, hashing and map
// updates tracked the sweep's 40-second medians with a correlation of
// 0.88, and the scaled medians spread 0.05 instead of 0.13. This probe
// leaves out the map updates, whose time depends on the map's random
// hash seed and varied from one measurement to the next about twice as
// much as sorting and hashing did, allocates nothing, and runs longer,
// so that its own noise adds less on a host that holds its speed.
type probe struct {
	rng  *rand.Rand
	keys []int
	buf  []byte
	ms   []float64
}

// probeRefMS is the probe's median on the host the baseline was measured
// on (Intel Xeon, 2 vCPUs), so there the scaled and measured times
// agree.
const probeRefMS = 185

func newProbe() *probe {
	return &probe{rng: rand.New(rand.NewSource(1)), keys: make([]int, 200000), buf: make([]byte, 1<<20)}
}

// measure runs the task once and records its time. It does the same work
// every time.
func (p *probe) measure() {
	t0 := time.Now()
	for rep := 0; rep < 3; rep++ {
		p.rng.Seed(1)
		for i := range p.keys {
			p.keys[i] = p.rng.Int()
		}
		sort.Ints(p.keys)
		for i := 0; i < 32; i++ {
			h := sha256.Sum256(p.buf)
			p.buf[i] = h[0]
		}
	}
	p.ms = append(p.ms, ms(time.Since(t0)))
}

// timingMetrics are the end-to-end metrics the probe scales.
var timingMetrics = []string{"wall_s", "setup_s", "req_p50_ms", "req_p99_ms", "req_per_s"}

// normalize scales the run's timing metrics to the reference speed and
// keeps the measured values, the probe's median and the factor in the
// notes.
func (p *probe) normalize(res *Result, notes map[string]any) {
	k := probeRefMS / median(p.ms)
	measured := map[string]float64{}
	for _, name := range timingMetrics {
		m, ok := res.Metrics[name]
		if !ok {
			continue
		}
		measured[name] = m.Value
		if m.Unit == "1/s" {
			m.Value /= k
		} else {
			m.Value *= k
		}
		res.Metrics[name] = m
	}
	notes["measured"] = measured
	notes["probe_ms"] = median(p.ms)
	notes["probe_samples"] = len(p.ms)
	notes["speed_scale"] = k
}
