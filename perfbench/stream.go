package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/beebs"
	"repro/internal/layout"
	"repro/internal/mcc"
	"repro/internal/service"
)

// The serve workload's request stream. Callers of the daemon are build
// jobs that wait for each reply, so the load is a closed loop: each of
// serveClients clients sends its next request when the previous reply
// arrives. Two clients match the two cores the benchmark host has.
//
// A pass is passRequests requests against a freshly started daemon.
// Nine in ten repeat a request from the hot set (every BEEBS cell and
// both example kernels at the default constraints), so after its first
// occurrence such a request is answered from the daemon's memos: it
// measures HTTP, the cross-request store and JSON encoding. The other
// tenth are constraint points over the BEEBS cells; they solve
// warm-started from the session's earlier solves and spend their time in
// branch and bound. Nine in ten because in an incremental build most
// translation units are unchanged and asked for again; the tenth that is
// new still gives a run a few hundred solver-bound requests, so the p99
// (the thirtieth-slowest of some three thousand) falls among them. The
// kernels are sent as inline source, so a pass also compiles code the
// daemon has never seen.
//
// The constraint points are a fixed design, pointsPerCell per cell,
// spread over the rspare fractions and xlimits so that every fraction
// and every xlimit (the tight ones that exhaust the node budget
// included) occurs on several cells. The seed shuffles where they fall
// in the pass and draws the hot repeats. Drawing the points themselves
// at random made a pass's cost swing by a third from seed to seed,
// because a handful of tight points on rijndael and blowfish dominate
// it; with the design fixed, seeds differ in order and interleaving,
// which is what a daemon's callers vary.
//
// Every request carries the same solveMaxNodes. Without a node budget a
// single constrained point can run for tens of seconds and hold close to
// a gigabyte (int_matmult at Os, rspare 192, xlimit 1.1); with it the
// slowest request stays around a second.
const (
	serveClients  = 2
	pointsPerCell = 3
	passRequests  = 600
	solveMaxNodes = 300
)

var (
	rspareFractions = []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75}
	xlimits         = []float64{1.05, 1.1, 1.2, 1.3, 1.5, 1.75, 2.0}
	paperLevels     = []mcc.OptLevel{mcc.O2, mcc.Os}
)

// kernel is one inline-source program sent to the daemon.
type kernel struct {
	Name, Source string
}

// streamInputs is what the stream generator draws from: the BEEBS cells
// with their spare RAM (constraint points are fractions of it) and the
// inline kernels.
type streamInputs struct {
	Cells   []streamCell
	Kernels []kernel
}

type streamCell struct {
	Bench string
	Level mcc.OptLevel
	Spare int // default Rspare in bytes
}

// loadStreamInputs compiles every BEEBS cell once to learn its spare RAM
// and reads the example kernels under root.
func loadStreamInputs(root string) (*streamInputs, error) {
	in := &streamInputs{}
	for _, b := range beebs.All() {
		for _, lv := range paperLevels {
			p, err := mcc.Compile(b.Source, lv)
			if err != nil {
				return nil, fmt.Errorf("compiling %s %v: %w", b.Name, lv, err)
			}
			in.Cells = append(in.Cells, streamCell{b.Name, lv, layout.SpareRAM(p, layout.DefaultConfig())})
		}
	}
	files, err := filepath.Glob(filepath.Join(root, "examples", "kernels", "*.c"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		in.Kernels = append(in.Kernels, kernel{strings.TrimSuffix(filepath.Base(f), ".c"), string(src)})
	}
	if len(in.Kernels) == 0 {
		return nil, fmt.Errorf("no kernels under %s", filepath.Join(root, "examples", "kernels"))
	}
	return in, nil
}

// hotSet is the requests the stream repeats: every BEEBS cell, then
// every kernel, at both paper levels and default constraints.
func (in *streamInputs) hotSet() []service.OptimizeRequest {
	var hot []service.OptimizeRequest
	for _, c := range in.Cells {
		hot = append(hot, service.OptimizeRequest{Bench: c.Bench, Level: c.Level.String(), SolveMaxNodes: solveMaxNodes})
	}
	for _, k := range in.Kernels {
		for _, lv := range paperLevels {
			hot = append(hot, service.OptimizeRequest{Source: k.Source, Name: k.Name, Level: lv.String(), SolveMaxNodes: solveMaxNodes})
		}
	}
	return hot
}

// request is one generated request: its body bytes and the decoded form
// the checks work from.
type request struct {
	Body []byte
	Req  service.OptimizeRequest
	Hot  bool
}

// points is the design of constraint points: pointsPerCell per cell,
// cycling through the fractions and xlimits at different strides so
// the pairs spread over the grid.
func (in *streamInputs) points() []service.OptimizeRequest {
	var out []service.OptimizeRequest
	for i, c := range in.Cells {
		for k := 0; k < pointsPerCell; k++ {
			f := rspareFractions[(i+2*k)%len(rspareFractions)]
			x := xlimits[(pointsPerCell*i+k)%len(xlimits)]
			out = append(out, service.OptimizeRequest{
				Bench: c.Bench, Level: c.Level.String(),
				Rspare: float64(int(f * float64(c.Spare))), Xlimit: x,
				SolveMaxNodes: solveMaxNodes,
			})
		}
	}
	return out
}

// stream generates pass number pass of the stream for seed: the
// constraint points at seeded positions, the hot set's repeats drawn by
// the seed everywhere else. The same seed, pass and inputs always give
// the same request bytes.
func (in *streamInputs) stream(seed int64, pass int) ([]request, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	hot := in.hotSet()
	pts := in.points()
	slots := rng.Perm(passRequests)[:len(pts)]
	at := make(map[int]int, len(pts))
	for j, pos := range slots {
		at[pos] = j
	}
	out := make([]request, passRequests)
	for i := range out {
		r := &out[i]
		if j, ok := at[i]; ok {
			r.Req = pts[j]
		} else {
			r.Req, r.Hot = hot[rng.Intn(len(hot))], true
		}
		body, err := json.Marshal(r.Req)
		if err != nil {
			return nil, err
		}
		r.Body = body
	}
	return out, nil
}
