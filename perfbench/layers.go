package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/sim"
)

// ledgerReps is how often the traced run repeats each untraced and
// traced simulation; every time it reports is a median over them.
const ledgerReps = 3

// perConfig collects one ledger configuration's repetitions.
type perConfig struct {
	sync, async []time.Duration
	traced      []tracedRep
}

func durs(reps []tracedRep, f func(tracedRep) time.Duration) []time.Duration {
	out := make([]time.Duration, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// timeRun runs c once and returns its result and host time.
func timeRun(c sim.Config) (*sim.Result, time.Duration, error) {
	t0 := time.Now()
	res, err := sim.Run(c)
	return res, time.Since(t0), err
}

// measureLayers is the traced run: one untraced pass for the PBS-unit
// counts, CPU use and golden checks, then the layer split of the
// workload's ledger configurations, the trace-ring instrumentation, the
// emulator-only runs and a warm-prefix checkpoint round trip. Any failed
// self-check aborts it.
func measureLayers(b *bench, w *workload) (map[string]metric, error) {
	_, build, predecode, err := medianSetup(w)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	ps, err := w.pass(b)
	if err != nil {
		return nil, err
	}
	probe, err := workloadProbe(b, w, ps)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	b.attempted++
	if err := w.heldOut(b); err != nil {
		b.failed++
		logf("FAIL %s held-out seed %d: %v", w.name, b.heldOutSeed(), err)
	}
	var resolutions, steered, capMisses uint64
	for _, r := range ps.results {
		resolutions += r.PBSStats.Resolutions
		steered += r.PBSStats.Steered
		capMisses += r.PBSStats.CapacityMisses
	}
	var passWall, passCPU time.Duration
	for _, s := range ps.sims {
		passWall += s.wall
		passCPU += s.cpu
	}
	cpuUtil := passCPU.Seconds() / (passWall.Seconds() * float64(runtime.GOMAXPROCS(0)))

	_, cks, err := warmFork(w.configs[0], sweepWarmPrefix, setupReps)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var ckBytes []float64
	var ckSave, ckRestore []time.Duration
	for _, ck := range cks {
		ckBytes = append(ckBytes, float64(ck.bytes))
		ckSave = append(ckSave, ck.save)
		ckRestore = append(ckRestore, ck.restore)
	}

	// Layer split: sync untraced, default (async) untraced and traced
	// runs of each configuration, alternating their order per repetition.
	var (
		instrs                                 uint64
		emuT, pipeT, predT, cacheT, runT       float64
		untraced, asyncT                       float64
		predCalls, predCorrect                 uint64
		cacheAcc, l1dAcc, l1dMiss              uint64
		prodWall, prodWait, consWall, consBusy float64
	)
	for _, c := range w.ledger {
		sc := c
		sc.SyncTiming = true
		var pc perConfig
		var ref *sim.Result
		for r := range ledgerReps {
			steps := []func() error{
				func() error {
					res, d, err := timeRun(sc)
					ref = res
					pc.sync = append(pc.sync, d)
					return err
				},
				func() error {
					if w.sampled != nil {
						return nil // sampled-long times delivery on its sampled runs
					}
					_, d, err := timeRun(c)
					pc.async = append(pc.async, d)
					return err
				},
				func() error {
					tr, err := tracedRun(sc)
					pc.traced = append(pc.traced, tr)
					return err
				},
			}
			if r%2 == 1 {
				steps[0], steps[2] = steps[2], steps[0]
			}
			for _, step := range steps {
				if err := step(); err != nil {
					return nil, fmt.Errorf("%s: %w", configKey(c), err)
				}
			}
		}
		for _, tr := range pc.traced {
			b.attempted++
			if err := tr.selfCheck(ref.Timing); err != nil {
				b.failed++
				return nil, fmt.Errorf("self-check %s: %w", configKey(c), err)
			}
		}
		ar, err := asyncRun(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", configKey(c), err)
		}
		b.attempted++
		if ar.metrics != ref.Timing {
			b.failed++
			return nil, fmt.Errorf("self-check %s: ring-delivered metrics differ from sim.Run's", configKey(c))
		}
		prodWall += ar.producer.Seconds()
		prodWait += ar.wait.Seconds()
		consWall += ar.consumer.Seconds()
		consBusy += ar.busy.Seconds()

		t := pc.traced
		instrs += t[0].instrs
		emuT += medianDuration(durs(t, tracedRep.emu)).Seconds()
		pipeT += medianDuration(durs(t, tracedRep.pipeline)).Seconds()
		predT += medianDuration(durs(t, func(r tracedRep) time.Duration { return r.pred })).Seconds()
		cacheT += medianDuration(durs(t, func(r tracedRep) time.Duration { return r.cache })).Seconds()
		runT += medianDuration(durs(t, func(r tracedRep) time.Duration { return r.run })).Seconds()
		untraced += medianDuration(pc.sync).Seconds()
		if pc.async != nil {
			asyncT += medianDuration(pc.async).Seconds()
		}
		predCalls += t[0].predCalls
		predCorrect += t[0].predCorrect
		cacheAcc += t[0].cacheAccesses
		l1dAcc += t[0].l1dAccesses
		l1dMiss += t[0].l1dMisses
	}

	// Emulator-only runs: the untraced fused path.
	var skipT float64
	var skipInstrs uint64
	for _, c := range w.skip {
		c.SkipTiming = true
		var ds []time.Duration
		var res *sim.Result
		for range ledgerReps {
			r, d, err := timeRun(c)
			if err != nil {
				return nil, fmt.Errorf("%s emulator-only: %w", configKey(c), err)
			}
			res = r
			ds = append(ds, d)
		}
		skipT += medianDuration(ds).Seconds()
		skipInstrs += res.Emu.Instructions
	}
	emuUntracedNs := skipT / float64(skipInstrs) * 1e9

	ni := float64(instrs)
	residual := residualFrac(untraced, emuT, pipeT, predT, cacheT)
	asyncOverSync := asyncT / untraced
	if w.sampled != nil {
		// Reconcile the sampled runs: fast-forwarded instructions at the
		// emulator-only cost, the rest at the traced timing stack's cost.
		stackNs := (emuT + pipeT + predT + cacheT) / ni * 1e9
		var sampledSync, sampledAsync, layers float64
		for _, c := range w.sampled {
			sc := c
			sc.SyncTiming = true
			var syncD, asyncD []time.Duration
			var res *sim.Result
			for range ledgerReps {
				r, d, err := timeRun(sc)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", configKey(sc), err)
				}
				res = r
				syncD = append(syncD, d)
				if _, d, err = timeRun(c); err != nil {
					return nil, fmt.Errorf("%s: %w", configKey(c), err)
				}
				asyncD = append(asyncD, d)
			}
			sampledSync += medianDuration(syncD).Seconds()
			sampledAsync += medianDuration(asyncD).Seconds()
			ff := float64(res.Sampled.InstrsFastForwarded)
			layers += (ff*emuUntracedNs + (float64(res.Emu.Instructions)-ff)*stackNs) / 1e9
		}
		residual = residualFrac(sampledSync, layers)
		asyncOverSync = sampledAsync / sampledSync
	}

	return map[string]metric{
		"emu.traced_ns_per_instr":   {emuT / ni * 1e9, "ns"},
		"emu.untraced_ns_per_instr": {emuUntracedNs, "ns"},
		"core.resolutions":          {float64(resolutions), "count"},
		"core.steered_frac":         {ratio(steered, resolutions), "ratio"},
		"core.capacity_misses":      {float64(capMisses), "count"},
		"trace.producer_wait_frac":  {prodWait / prodWall, "ratio"},
		"trace.consumer_idle_frac":  {1 - consBusy/consWall, "ratio"},
		"trace.async_over_sync":     {asyncOverSync, "ratio"},
		"pipeline.ns_per_instr":     {pipeT / ni * 1e9, "ns"},
		"branch.calls_per_kinstr":   {float64(predCalls) / ni * 1e3, "1/kinstr"},
		"branch.ns_per_call":        {predT / float64(predCalls) * 1e9, "ns"},
		"branch.ns_per_instr":       {predT / ni * 1e9, "ns"},
		"branch.correct_frac":       {ratio(predCorrect, predCalls), "ratio"},
		"cache.accesses_per_kinstr": {float64(cacheAcc) / ni * 1e3, "1/kinstr"},
		"cache.ns_per_access":       {cacheT / float64(cacheAcc) * 1e9, "ns"},
		"cache.ns_per_instr":        {cacheT / ni * 1e9, "ns"},
		"cache.l1d_miss_frac":       {ratio(l1dMiss, l1dAcc), "ratio"},
		"setup.build_ms":            {ms(build), "ms"},
		"setup.predecode_ms":        {ms(predecode), "ms"},
		"sample.detailed_frac":      {probe.detailedFrac, "ratio"},
		"sample.windows":            {float64(probe.windows), "count"},
		"sample.ipc_halfwidth":      {probe.halfWidth, "IPC"},
		"sweep.cpu_util":            {cpuUtil, "ratio"},
		"ckpt.bytes":                {median(ckBytes), "bytes"},
		"ckpt.save_ms":              {ms(medianDuration(ckSave)), "ms"},
		"ckpt.restore_ms":           {ms(medianDuration(ckRestore)), "ms"},
		"ledger.residual_frac":      {residual, "ratio"},
		"ledger.overhead_frac":      {runT/untraced - 1, "ratio"},
	}, nil
}

func ratio(a, b uint64) float64 { return float64(a) / float64(b) }

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
