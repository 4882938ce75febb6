package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestGoldenCompareRejectsEachPerturbedCounter(t *testing.T) {
	base := Golden{
		Instructions: 18_000_000, Cycles: 6_000_000, Mispredicts: 1234,
		L1IMisses: 6, L1DMisses: 1, L2Misses: 7, OutputHash: 0xfeedface,
	}
	if err := base.compare(base); err != nil {
		t.Fatalf("identical goldens differ: %v", err)
	}
	v := reflect.ValueOf(&base).Elem()
	for i := range v.NumField() {
		got := base
		f := reflect.ValueOf(&got).Elem().Field(i)
		f.SetUint(f.Uint() + 1)
		err := got.compare(base)
		if err == nil {
			t.Errorf("perturbing %s by one went unnoticed", v.Type().Field(i).Name)
			continue
		}
		if name := v.Type().Field(i).Tag.Get("json"); !strings.Contains(err.Error(), name) {
			t.Errorf("perturbing %s: error %q does not name %s", v.Type().Field(i).Name, err, name)
		}
	}
}

func TestGoldenOfHashesOutputs(t *testing.T) {
	a := goldenOf(&sim.Result{Outputs: []uint64{1, 2}})
	b := goldenOf(&sim.Result{Outputs: []uint64{2, 1}})
	if a.OutputHash == b.OutputHash {
		t.Error("reordered outputs hash alike")
	}
}

// Every configuration a pass or probe simulates must have a stored
// golden, and no two configurations may share a key.
func TestEveryConfigurationHasAGolden(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"full-mix", "sampled-long", "sweep-grid"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want := len(w.probe)
		seen := map[string]bool{}
		for _, c := range w.probe {
			k := configKey(c)
			if seen[k] {
				t.Errorf("%s: duplicate key %s", name, k)
			}
			seen[k] = true
			if e, ok := g[name][k]; !ok || e.FullIPC <= 0 {
				t.Errorf("%s: probe %s has no golden with a full-timing IPC", name, k)
			}
		}
		if name == "sweep-grid" {
			pts, err := sweepGridSpec(nil, sweepSeeds).Points()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pts {
				if _, ok := g[name][pointKey(p)]; !ok {
					t.Errorf("%s: point %s has no golden", name, pointKey(p))
				}
			}
			want += len(pts)
		} else {
			for _, c := range w.configs {
				if _, ok := g[name][configKey(c)]; !ok {
					t.Errorf("%s: %s has no golden", name, configKey(c))
				}
				if !seen[configKey(c)] {
					seen[configKey(c)] = true
					want++
				}
			}
		}
		if len(g[name]) != want {
			t.Errorf("%s: %d goldens stored, %d configurations checked", name, len(g[name]), want)
		}
	}
}

// The held-out checks must use simulator seeds the goldens never saw.
func TestHeldOutSeedIsNotGolden(t *testing.T) {
	for _, seed := range []uint64{0, 1, 99, 1 << 40} {
		b := &bench{seed: seed}
		h := b.heldOutSeed()
		if h < heldOutBase {
			t.Errorf("seed %d: held-out seed %d below %d", seed, h, heldOutBase)
		}
	}
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range g {
		for k := range m {
			for _, part := range strings.Split(k, "/") {
				if s, ok := strings.CutPrefix(part, "seed"); ok && len(s) > 2 {
					t.Errorf("%s: golden %s uses a seed at or above %d", name, k, heldOutBase)
				}
			}
		}
	}
}
