package main

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/evaluation"
	"repro/internal/mcc"
	"repro/internal/service"
)

// replayCell replays one BEEBS cell's configurations inside the wall.
func replayCell(t *testing.T, r *replayer, opts ...core.Options) []*core.Report {
	t.Helper()
	b := beebs.Get("crc32")
	var reps []*core.Report
	r.clk.start()
	for _, o := range opts {
		rep, err := r.run(b, mcc.O2, o)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	r.clk.stop()
	return reps
}

func TestReplayConservesTheWall(t *testing.T) {
	r := newReplayer(context.Background())
	replayCell(t, r, core.Options{}, core.Options{UseProfile: true},
		core.Options{PowerTrace: "bursty"}, core.Options{PowerTrace: "bursty", CkptAware: true},
		core.Options{Trace: true})
	if err := r.clk.checkConservation(); err != nil {
		t.Fatal(err)
	}
	for _, layer := range []string{"mcc", "sim.baseline", "cfg", "freq", "model", "placement",
		"transform", "layout", "analysis", "sim.opt", "sim.replay", "trace"} {
		if r.clk.ms[layer] <= 0 {
			t.Errorf("layer %s has no self time", layer)
		}
	}
	if r.n.tailSplits == 0 || r.n.replayInstr == 0 {
		t.Errorf("no tail split or replay recorded: %+v", r.n)
	}
}

func TestConservationFailsOnAnUnaccountedSleep(t *testing.T) {
	r := newReplayer(context.Background())
	// The sleep runs inside the wall but outside every span, as a
	// layer the benchmark does not time would.
	r.clk.gap = func() { time.Sleep(5 * time.Millisecond) }
	replayCell(t, r, core.Options{})
	err := r.clk.checkConservation()
	if err == nil || !strings.Contains(err.Error(), "unaccounted") {
		t.Fatalf("conservation check passed with %.1f%% of the wall unaccounted", 100*r.clk.unaccounted())
	}
}

func TestRepeatedRequestHitsTheReportMemo(t *testing.T) {
	r := newReplayer(context.Background())
	o := core.Options{Rspare: 64, Xlimit: 1.2, SolveMaxNodes: solveMaxNodes}
	reps := replayCell(t, r, o, o)
	if reps[0] != reps[1] || r.n.optimizeHits != 1 {
		t.Errorf("the repeat did not come from the report memo (hits %v)", r.n.optimizeHits)
	}
}

func TestOutputCheckRejectsAWrongDocument(t *testing.T) {
	r := newReplayer(context.Background())
	rep := replayCell(t, r, core.Options{})[0]
	body, err := encodeJSON(evaluation.NewRunJSON(&evaluation.Run{Bench: "crc32", Level: mcc.O2, Report: rep}))
	if err != nil {
		t.Fatal(err)
	}
	req := service.OptimizeRequest{Bench: "crc32", Level: "O2"}
	c := newChecker(context.Background())
	if _, err := checkDocument(c, req, body); err != nil {
		t.Fatalf("the pipeline's own document fails the check: %v", err)
	}
	var doc evaluation.RunJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	doc.Optimized.EnergyMJ *= 0.99
	bad, _ := json.Marshal(doc)
	if _, err := checkDocument(c, req, bad); err == nil {
		t.Error("a document with a wrong energy passed the check")
	}
	doc.Optimized.EnergyMJ /= 0.99
	doc.MovedBlocks = nil
	bad, _ = json.Marshal(doc)
	if _, err := checkDocument(c, req, bad); err == nil {
		t.Error("a document naming the wrong placement passed the check")
	}
}

func TestOutputCheckUsesTheGoReference(t *testing.T) {
	b := *beebs.Get("crc32")
	b.Validate = func([]uint32) error { return errors.New("wrong result") }
	_, err := newChecker(context.Background()).check(image{Bench: &b, Level: mcc.O2})
	if err == nil || !strings.Contains(err.Error(), "wrong result") {
		t.Errorf("an image whose result the reference rejects: %v", err)
	}
}
