package main

import (
	"fmt"
	"time"
)

// clock is the traced run's span recorder. Spans wrap calls into one
// layer's public functions; a span's duration is that layer's self time
// because the benchmark calls the stages one after another, never one
// inside another. The wall runs from start to stop, except while shadow
// work (re-executions that split a span into layers, and probes) runs.
type clock struct {
	ms      map[string]float64
	wall    time.Duration
	resumed time.Time
	running bool

	// gap, when set, runs before every span inside the wall. Tests use
	// it to inject time no layer accounts for.
	gap func()
}

func newClock() *clock { return &clock{ms: map[string]float64{}} }

func (c *clock) start() {
	c.resumed, c.running = time.Now(), true
}

func (c *clock) stop() {
	if c.running {
		c.wall += time.Since(c.resumed)
		c.running = false
	}
}

// span runs f and charges its duration to layer.
func (c *clock) span(layer string, f func() error) error {
	d, err := c.timed(f)
	c.ms[layer] += d
	return err
}

// timed runs f inside the wall and returns its duration in ms without
// charging it to a layer; the caller distributes it.
func (c *clock) timed(f func() error) (float64, error) {
	if c.gap != nil {
		c.gap()
	}
	t0 := time.Now()
	err := f()
	return ms(time.Since(t0)), err
}

// shadow runs f outside the wall and returns its duration in ms.
func (c *clock) shadow(f func() error) (float64, error) {
	running := c.running
	c.stop()
	t0 := time.Now()
	err := f()
	d := ms(time.Since(t0))
	if running {
		c.start()
	}
	return d, err
}

func (c *clock) wallMS() float64 { return ms(c.wall) }

func (c *clock) spannedMS() float64 {
	var t float64
	for _, v := range c.ms {
		t += v
	}
	return t
}

// conservationTolerance bounds the share of the traced wall that no
// layer's span may leave unaccounted.
const conservationTolerance = 0.03

// unaccounted is the share of the wall outside every span.
func (c *clock) unaccounted() float64 {
	w := c.wallMS()
	if w == 0 {
		return 0
	}
	return (w - c.spannedMS()) / w
}

// checkConservation fails when the layers' self times do not sum to the
// traced wall within conservationTolerance.
func (c *clock) checkConservation() error {
	if u := c.unaccounted(); u > conservationTolerance || u < -conservationTolerance {
		return fmt.Errorf("layer self times sum to %.2f ms of a %.2f ms traced wall (%.1f%% unaccounted, tolerance %.0f%%)",
			c.spannedMS(), c.wallMS(), 100*u, 100*conservationTolerance)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
