package sweep

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
)

// overCapGrid is a ~64 KB spec that multiplies out to 4,194,304 runs:
// 2 predictors x 2 PBS x 2 widths x 2 filter settings x 32,768 seeds.
func overCapGrid() Grid {
	seeds := make([]uint64, 1<<15)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return Grid{
		Workloads:  []string{"PI"},
		Predictors: []sim.PredictorKind{sim.PredTournament, sim.PredTAGESCL},
		PBS:        []bool{false, true},
		Widths:     []int{4, 8},
		FilterProb: []bool{false, true},
		Seeds:      seeds,
	}
}

// TestGridCardinalityCap pins that Points rejects a grid declaring more
// than MaxGridRuns runs — counting seeds even under ShardSeeds — before
// allocating its points, and still expands a grid exactly at the cap.
func TestGridCardinalityCap(t *testing.T) {
	for _, shard := range []bool{false, true} {
		g := overCapGrid()
		g.ShardSeeds = shard
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pts, err := g.Points()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "more than") {
			t.Errorf("shard=%v: over-cap grid gave %d points, err %v; want the cap error", shard, len(pts), err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("shard=%v: rejecting the grid allocated %d bytes", shard, alloc)
		}
	}

	g := overCapGrid()
	g.Seeds = g.Seeds[:MaxGridRuns/16]
	pts, err := g.Points()
	if err != nil || len(pts) != MaxGridRuns {
		t.Errorf("grid at the cap: %d points, err %v; want %d", len(pts), err, MaxGridRuns)
	}
}

// FuzzGridPoints decodes arbitrary bytes as a grid spec the way
// cmd/pbsweep does (unknown fields rejected) and expands it: Points must
// answer with an error or at most MaxGridRuns points, never a panic.
func FuzzGridPoints(f *testing.F) {
	overCap, err := json.Marshal(overCapGrid())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(overCap)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"workloads": ["PI", "Bandit"], "predictors": ["tournament", "tage-sc-l"], "pbs": [false, true], "widths": [4, 8], "seeds": [11, 23], "shard_seeds": true}`))
	f.Add([]byte(`{"workloads": ["Genetic"], "variants": ["plain", "predicated", "cfd"], "skip_inapplicable": true, "filter_prob": [true], "warm_prefix": 1000}`))
	f.Add([]byte(`{"workloads": ["PI"], "sample_window": 1000, "sample_period": 100000, "sample_warmup": 2000, "sample_func_warm": true}`))
	f.Add([]byte(`{"widths": [6], "scale": -3, "max_instrs": 18446744073709551615}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var g Grid
		if err := dec.Decode(&g); err != nil {
			return
		}
		pts, err := g.Points()
		if err == nil && len(pts) > MaxGridRuns {
			t.Fatalf("grid expanded to %d points, above the %d cap", len(pts), MaxGridRuns)
		}
	})
}
