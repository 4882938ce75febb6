package main

import "fmt"

// recordGoldens simulates every workload's configurations once (plus
// the full-timing reference of every sampled configuration) and writes
// the results as the goldens the benchmark checks against. Run it only
// when a change is meant to alter simulated results, and say so.
func recordGoldens(path string) error {
	b := &bench{seed: 1, goldens: Goldens{}, recording: true}
	for _, name := range []string{"full-mix", "sampled-long", "sweep-grid"} {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		ps, err := w.pass(b)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if _, err := workloadProbe(b, w, ps); err != nil {
			return fmt.Errorf("%s probe: %w", name, err)
		}
		logf("%s: recorded %d goldens", name, len(b.goldens[name]))
	}
	if b.failed > 0 {
		return fmt.Errorf("%d simulations failed", b.failed)
	}
	return b.goldens.save(path)
}
