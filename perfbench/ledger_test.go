package main

import (
	"testing"

	"repro/internal/sim"
)

// The traced and ring-delivered machines must reproduce sim.Run exactly,
// and the self-check must notice when they do not.
func TestTracedRunSelfChecks(t *testing.T) {
	c := withMax(tage("Bandit", true, 1, 1), 300_000)
	c.SyncTiming = true
	ref, err := sim.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracedRun(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.selfCheck(ref.Timing); err != nil {
		t.Fatal(err)
	}
	if tr.predCalls == 0 || tr.cacheAccesses == 0 || tr.consume <= 0 {
		t.Errorf("traced run recorded nothing: %+v", tr)
	}
	bad := ref.Timing
	bad.Cycles++
	if tr.selfCheck(bad) == nil {
		t.Error("self-check accepted a perturbed cycle count")
	}
	tr.mismatches = 1
	if tr.selfCheck(ref.Timing) == nil {
		t.Error("self-check accepted a shadow predictor mismatch")
	}

	ar, err := asyncRun(c)
	if err != nil {
		t.Fatal(err)
	}
	if ar.metrics != ref.Timing {
		t.Errorf("ring-delivered metrics %+v, sim.Run %+v", ar.metrics, ref.Timing)
	}
}

// Each workload's held-out check passes on a seed outside the goldens.
func TestHeldOutChecksAgree(t *testing.T) {
	if err := checkSplitRun(tage("PI", true, heldOutBase+1, 1)); err != nil {
		t.Errorf("split run: %v", err)
	}
	if err := checkSampledFunctional(withSample(tage("Bandit", true, heldOutBase+1, 2), probeSchedule)); err != nil {
		t.Errorf("sampled functional: %v", err)
	}
	pts, err := sweepGridSpec([]string{"Genetic"}, []uint64{heldOutBase + 1}).Points()
	if err != nil {
		t.Fatal(err)
	}
	p := pts[len(pts)-1] // TAGE-SC-L, 8-wide, PBS on
	if err := checkWarmFork(p); err != nil {
		t.Errorf("warm fork of %v: %v", p, err)
	}
}
