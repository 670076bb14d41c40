package main

import (
	"bytes"
	"sync"
	"testing"
)

var (
	inputsOnce sync.Once
	inputs     *streamInputs
	inputsErr  error
)

func testInputs(t *testing.T) *streamInputs {
	t.Helper()
	inputsOnce.Do(func() { inputs, inputsErr = loadStreamInputs("..") })
	if inputsErr != nil {
		t.Fatal(inputsErr)
	}
	return inputs
}

func TestStreamIsDeterministic(t *testing.T) {
	in := testInputs(t)
	a, err := in.stream(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := in.stream(7, 0)
	for i := range a {
		if !bytes.Equal(a[i].Body, b[i].Body) {
			t.Fatalf("request %d differs between two generations with one seed:\n%s\n%s", i, a[i].Body, b[i].Body)
		}
	}
	for _, other := range [][2]int64{{8, 0}, {7, 1}} {
		c, _ := in.stream(other[0], int(other[1]))
		same := true
		for i := range a {
			same = same && bytes.Equal(a[i].Body, c[i].Body)
		}
		if same {
			t.Errorf("seed %d pass %d gives the same stream as seed 7 pass 0", other[0], other[1])
		}
	}
}

func TestStreamMix(t *testing.T) {
	in := testInputs(t)
	reqs, err := in.stream(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	hot, inline := 0, 0
	for _, r := range reqs {
		if r.Req.SolveMaxNodes != solveMaxNodes {
			t.Fatalf("request without the node budget: %s", r.Body)
		}
		if r.Hot {
			hot++
		} else if r.Req.Rspare <= 0 || r.Req.Xlimit < 1 {
			t.Fatalf("constraint point without constraints: %s", r.Body)
		}
		if r.Req.Source != "" {
			inline++
		}
	}
	if n := len(reqs) - hot; n != len(in.Cells)*pointsPerCell {
		t.Errorf("%d constraint points in a pass, want %d", n, len(in.Cells)*pointsPerCell)
	}
	if inline == 0 {
		t.Error("no inline kernel in the stream")
	}
	if len(in.hotSet()) != len(in.Cells)+len(paperLevels)*len(in.Kernels) {
		t.Errorf("hot set has %d requests", len(in.hotSet()))
	}
}
