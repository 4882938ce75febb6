// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one workload for a given number of seconds, checks
// every simulated result against the stored goldens, and prints one JSON
// result line:
//
//	go -C perfbench run . --workload full-mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced runs;
// with --trace 1 it reports the per-layer metrics of a separate traced
// run. --record FILE re-records the goldens (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name   = flag.String("workload", "", "full-mix, sampled-long or sweep-grid")
		seed   = flag.Uint64("seed", 1, "workload seed: orders the configurations and picks the held-out check")
		secs   = flag.Float64("seconds", 10, "measure for at least this many seconds")
		traced = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		record = flag.String("record", "", "simulate every workload once and write its goldens to this file")
	)
	flag.Parse()
	if *record != "" {
		if err := recordGoldens(*record); err != nil {
			logf("record: %v", err)
			os.Exit(1)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		logf("--trace must be 0 or 1")
		os.Exit(2)
	}
	w, err := workloadByName(*name)
	if err != nil {
		logf("%v", err)
		os.Exit(2)
	}
	goldens, err := loadGoldens()
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	b := &bench{seed: *seed, goldens: goldens}
	printHost(*seed, *name, *traced == 1)

	var ms map[string]metric
	if *traced == 1 {
		ms, err = measureLayers(b, w)
	} else {
		ms, err = measureEndToEnd(b, w, *secs)
	}
	res := result{Correct: err == nil && b.failed == 0, Attempted: max(b.attempted, 1), Failed: b.failed, Metrics: ms}
	if err == nil {
		err = checkFinite(ms)
	}
	if err != nil || !res.Correct {
		// A failed check aborts the measurement: no numbers are printed.
		if err != nil {
			logf("%s: %v", w.name, err)
		}
		res.Correct, res.Metrics = false, map[string]metric{}
		if res.Failed == 0 {
			res.Failed = 1
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// peakRSSMB is the process's peak resident set size so far (VmHWM), in
// MiB. getrusage's maxrss would also count the launcher's resident set
// at fork time, which exec carries over; VmHWM starts afresh at exec.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

func checkFinite(ms map[string]metric) error {
	for k, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	return nil
}

// measureEndToEnd runs whole passes of the workload until the time is
// up. Each configuration's wall and CPU time is the median over its
// passes; throughput sums those medians, so a slow spell on a shared
// host moves the figures less than a mean would.
func measureEndToEnd(b *bench, w *workload, secs float64) (map[string]metric, error) {
	type perKey struct {
		wall, cpu []float64
		instrs    uint64
		points    int
	}
	byKey := map[string]*perKey{}
	var sims []float64
	var first passStats
	start := time.Now()
	for passes := 0; passes == 0 || time.Since(start).Seconds() < secs; passes++ {
		ps, err := w.pass(b)
		if err != nil {
			return nil, err
		}
		if passes == 0 {
			first = ps
		}
		for _, s := range ps.sims {
			k := byKey[s.key]
			if k == nil {
				k = &perKey{instrs: s.instrs, points: s.points}
				byKey[s.key] = k
			}
			k.wall = append(k.wall, s.wall.Seconds())
			k.cpu = append(k.cpu, s.cpu.Seconds())
			sims = append(sims, s.wall.Seconds())
		}
	}
	elapsed := time.Since(start)
	// host_mem_mb is the peak resident set of the measured passes; the
	// checks below hold several sessions and checkpoints at once, which
	// is not the workload's footprint.
	memMB, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	var wall, cpu float64
	var instrs uint64
	var points int
	for key, k := range byKey {
		logf("%s %s: %d runs, median %.3fs, spread %.1f%%, walls %.3f", w.name, key, len(k.wall), median(k.wall), 100*spread(k.wall), k.wall)
		wall += median(k.wall)
		cpu += median(k.cpu)
		instrs += k.instrs
		points += k.points
	}
	minstr := float64(instrs) / 1e6

	probe, err := workloadProbe(b, w, first)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	b.attempted++
	if err := w.heldOut(b); err != nil {
		b.failed++
		logf("FAIL %s held-out seed %d: %v", w.name, b.heldOutSeed(), err)
	}
	setup, _, _, err := medianSetup(w)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	n := len(sims)
	logf("%s: %d simulations in %.1fs; run_s p50 %.3f over %d samples", w.name, n, elapsed.Seconds(), median(sims), n)
	if p, ok := highestPercentile(n); ok && p > 50 {
		logf("%s: run_s p%g %.3f", w.name, p, percentile(sims, p))
	}
	return map[string]metric{
		"setup_s":             {setup.Seconds(), "s"},
		"sim_minstr_per_s":    {minstr / wall, "Minstr/s"},
		"run_s_p50":           {median(sims), "s"},
		"points_per_s":        {float64(points) / wall, "1/s"},
		"cpu_s_per_minstr":    {cpu / minstr, "s/Minstr"},
		"host_mem_mb":         {memMB, "MB"},
		"sampled_ipc_err_pct": {probe.errPct, "%"},
	}, nil
}

// workloadProbe measures sampling error: on sampled-long from the pass
// just run, elsewhere from the workload's denser-sampled probe runs.
func workloadProbe(b *bench, w *workload, ps passStats) (probeStats, error) {
	if w.sampled == nil {
		return b.runProbe(w.name, w.probe, nil)
	}
	byKey := map[string]*sim.Result{}
	for i, r := range ps.results {
		byKey[ps.keys[i]] = r
	}
	done := make([]*sim.Result, len(w.probe))
	for i, c := range w.probe {
		done[i] = byKey[configKey(c)]
	}
	return b.runProbe(w.name, w.probe, done)
}
