package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

const (
	// fullMixScale gives each full-mix configuration about 18M retired
	// instructions; one pass over the mix takes a few host seconds, so a
	// run holds several passes to take a median over.
	fullMixScale = 4
	// sampledScale gives each sampled-long configuration about 150M
	// retired instructions, ~97% of them fast-forwarded.
	sampledScale = 32
	// sweepWarmPrefix is the functional warm prefix every sweep-grid
	// point forks from (one checkpoint per program, seed and PBS group).
	sweepWarmPrefix = 1_000_000
	// setupReps is how often one run repeats the set-up it reports the
	// median of.
	setupReps = 15
	// heldOutBase starts the simulator seeds of the held-out checks; the
	// goldens use seeds below it only.
	heldOutBase = 100
)

// longSchedule is BenchmarkSampledTiming's SMARTS schedule: one
// 10,007-instruction window per ~2M instructions, warmed 50,021 ahead.
var longSchedule = sample.Config{Window: 10_007, Period: 2_000_003, Warmup: 50_021}

// probeSchedule samples ten times denser, so the short configurations
// of full-mix and sweep-grid still close tens of windows each.
var probeSchedule = sample.Config{Window: 10_007, Period: 200_003, Warmup: 50_021}

// workload is one benchmark workload: what a pass simulates, which
// sampled configurations measure sampling error, and which full-timing
// configurations the traced run splits into layers.
type workload struct {
	name string
	// configs are the configurations of one pass, in canonical order.
	configs []sim.Config
	// pass simulates every configuration once, in an order drawn from
	// the seed, checking each result against its golden.
	pass func(b *bench) (passStats, error)
	// probe lists the sampled configurations behind sampled_ipc_err_pct.
	probe []sim.Config
	// ledger lists the full-timing configurations the traced run
	// measures layer by layer (sync delivery, possibly capped).
	ledger []sim.Config
	// sampled, when set, are the sampled configurations the timing
	// stack is reconciled against (sampled-long).
	sampled []sim.Config
	// skip lists the configurations run emulator-only for
	// emu.untraced_ns_per_instr.
	skip []sim.Config
	// heldOut checks one configuration at a simulator seed the goldens
	// never used, by comparing two public paths that must agree.
	heldOut func(b *bench) error
}

func tage(name string, pbs bool, seed uint64, scale int) sim.Config {
	return sim.Config{Workload: name, PBS: pbs, Seed: seed, Predictor: sim.PredTAGESCL, Params: workloads.Params{Scale: scale}}
}

func withSample(c sim.Config, sc sample.Config) sim.Config {
	c.Sample = &sc
	return c
}

func withMax(c sim.Config, n uint64) sim.Config {
	c.MaxInstrs = n
	return c
}

func withSeed(c sim.Config, seed uint64) sim.Config {
	c.Seed = seed
	return c
}

func workloadByName(name string) (*workload, error) {
	switch name {
	case "full-mix":
		return fullMix(), nil
	case "sampled-long":
		return sampledLong(), nil
	case "sweep-grid":
		return sweepGrid(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want full-mix, sampled-long or sweep-grid)", name)
}

func fullMix() *workload {
	mix := []sim.Config{
		tage("PI", false, 1, fullMixScale),
		tage("PI", true, 1, fullMixScale),
		tage("Bandit", true, 1, fullMixScale),
		tage("Genetic", false, 1, fullMixScale),
		tage("Photon", false, 1, fullMixScale),
	}
	w := &workload{name: "full-mix", configs: mix, ledger: mix, skip: mix}
	w.pass = func(b *bench) (passStats, error) { return b.runSequential(w.name, shuffled(b.seed, mix)) }
	for _, c := range mix {
		w.probe = append(w.probe, withSample(c, probeSchedule))
	}
	w.heldOut = func(b *bench) error {
		c := withSeed(mix[b.seed%uint64(len(mix))], b.heldOutSeed())
		c.Params.Scale = 1
		return checkSplitRun(c)
	}
	return w
}

func sampledLong() *workload {
	long := []sim.Config{
		withSample(tage("PI", true, 1, sampledScale), longSchedule),
		withSample(tage("Bandit", true, 1, sampledScale), longSchedule),
	}
	w := &workload{name: "sampled-long", configs: long, probe: long, sampled: long}
	w.pass = func(b *bench) (passStats, error) { return b.runSequential(w.name, shuffled(b.seed, long)) }
	for _, c := range long {
		full := c
		full.Sample = nil
		// The layer split runs the timing stack on the first 18M
		// instructions; the sampled runs it is reconciled against time
		// only ~3% of theirs in detail.
		w.ledger = append(w.ledger, withMax(full, 18_000_000))
		w.skip = append(w.skip, full)
	}
	w.heldOut = func(b *bench) error {
		c := withSeed(long[b.seed%uint64(len(long))], b.heldOutSeed())
		c.Params.Scale = 8
		return checkSampledFunctional(c)
	}
	return w
}

// sweepGridSpec is the sweep-grid grid: 8 programs x 2 predictors x PBS
// off/on x width 4/8 x 2 seeds = 128 points, forked from shared warm
// prefixes, Parallel = GOMAXPROCS (which forces sync delivery).
func sweepGridSpec(programs []string, seeds []uint64) sweep.Grid {
	return sweep.Grid{
		Workloads:  programs,
		Predictors: []sim.PredictorKind{sim.PredTournament, sim.PredTAGESCL},
		PBS:        []bool{false, true},
		Widths:     []int{4, 8},
		Seeds:      seeds,
		Scale:      1,
		WarmPrefix: sweepWarmPrefix,
		Parallel:   runtime.GOMAXPROCS(0),
	}
}

var sweepSeeds = []uint64{11, 12}

func sweepGrid() *workload {
	programs := workloads.Names()
	pts, err := sweepGridSpec(programs, sweepSeeds).Points()
	if err != nil {
		panic(err) // the grid is a constant of the benchmark
	}
	w := &workload{name: "sweep-grid"}
	for _, p := range pts {
		w.configs = append(w.configs, pointConfig(p))
	}
	w.pass = func(b *bench) (passStats, error) {
		g := sweepGridSpec(shuffled(b.seed, programs), sweepSeeds)
		return b.runGrid(w.name, g)
	}
	for i, name := range programs {
		w.probe = append(w.probe, withSample(tage(name, true, sweepSeeds[0], 1), probeSchedule))
		// One full-timing configuration per program for the layer
		// split, alternating predictor, width and PBS so both
		// predictors and both cores are covered.
		c := tage(name, i%2 == 0, sweepSeeds[0], 1)
		if i%2 == 1 {
			c.Predictor = sim.PredTournament
		}
		if (i/2)%2 == 1 {
			core := pipeline.EightWide()
			c.Core = &core
		}
		w.ledger = append(w.ledger, c)
	}
	w.skip = w.ledger
	w.heldOut = func(b *bench) error {
		p := pts[int(b.seed%uint64(len(pts)))]
		p.Seed = b.heldOutSeed()
		return checkWarmFork(p)
	}
	return w
}

// pointConfig is the sim.Config a sweep point runs (its warm prefix
// aside).
func pointConfig(p sweep.Point) sim.Config {
	c := sim.Config{Workload: p.Workload, Seed: p.Seed, Predictor: p.Predictor, PBS: p.PBS, Params: workloads.Params{Scale: p.Scale}}
	if p.Width == 8 {
		core := pipeline.EightWide()
		c.Core = &core
	}
	return c
}

func pointKey(p sweep.Point) string {
	return fmt.Sprintf("%s/warm%d", configKey(pointConfig(p)), p.WarmPrefix)
}

// optionsOf translates a config into session options.
func optionsOf(c sim.Config) []sim.Option {
	opts := []sim.Option{
		sim.WithSeed(c.Seed),
		sim.WithPBS(c.PBS),
		sim.WithPredictor(c.Predictor),
		sim.WithScale(c.Params.Scale),
		sim.WithMaxInstrs(c.MaxInstrs),
		sim.WithTiming(!c.SkipTiming),
	}
	if c.Core != nil {
		opts = append(opts, sim.WithCore(*c.Core))
	}
	if c.Sample != nil {
		opts = append(opts, sim.WithSampledTiming(*c.Sample))
	}
	if c.Program != nil {
		opts = append(opts, sim.WithProgram(c.Program))
	}
	if c.SyncTiming {
		opts = append(opts, sim.WithSyncTiming())
	}
	return opts
}

// bench carries one benchmark run's seed, goldens and check counts.
type bench struct {
	seed    uint64
	goldens Goldens
	// recording, when set, stores results as goldens instead of
	// checking them.
	recording bool

	attempted, failed int
}

func (b *bench) heldOutSeed() uint64 { return heldOutBase + b.seed%(1<<20) }

// shuffled returns xs in an order drawn from the benchmark seed.
func shuffled[T any](seed uint64, xs []T) []T {
	out := slices.Clone(xs)
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// check counts one simulated result against its golden, or records it.
func (b *bench) check(workload, key string, res *sim.Result, err error) {
	b.attempted++
	if err == nil && b.recording {
		if b.goldens[workload] == nil {
			b.goldens[workload] = map[string]Expect{}
		}
		exp := b.goldens[workload][key]
		exp.Golden = goldenOf(res)
		b.goldens[workload][key] = exp
		return
	}
	if err == nil {
		want, ok := b.goldens[workload][key]
		if !ok {
			err = fmt.Errorf("no golden")
		} else {
			err = goldenOf(res).compare(want.Golden)
		}
	}
	if err != nil {
		b.failed++
		logf("FAIL %s %s: %v", workload, key, err)
	}
}

// simStat is one timed simulation (one whole grid, on sweep-grid).
type simStat struct {
	key       string
	wall, cpu time.Duration // cpu: process user+sys time, every goroutine
	instrs    uint64
	points    int
}

// passStats is one pass over a workload's configurations.
type passStats struct {
	sims    []simStat
	results []*sim.Result
	keys    []string // golden key of each result
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timed runs f from a collected heap, as a fresh process would, and
// returns its wall and CPU time. Collecting first also keeps the peak
// heap (and host_mem_mb) independent of when the collector last ran.
func timed(f func()) (wall, cpu time.Duration) {
	runtime.GC()
	c0, t0 := cpuTime(), time.Now()
	f()
	return time.Since(t0), cpuTime() - c0
}

// runSequential runs the configurations one sim.Run at a time with
// default options, as pbsim and a single figure run do.
func (b *bench) runSequential(workload string, cfgs []sim.Config) (passStats, error) {
	var ps passStats
	for _, c := range cfgs {
		var res *sim.Result
		var err error
		wall, cpu := timed(func() { res, err = sim.Run(c) })
		key := configKey(c)
		b.check(workload, key, res, err)
		if err != nil {
			return ps, err
		}
		ps.sims = append(ps.sims, simStat{key: key, wall: wall, cpu: cpu, instrs: res.Emu.Instructions, points: 1})
		ps.results = append(ps.results, res)
		ps.keys = append(ps.keys, key)
	}
	return ps, nil
}

// runGrid runs the grid on a fresh engine.
func (b *bench) runGrid(workload string, g sweep.Grid) (passStats, error) {
	var ps passStats
	var rs sweep.Results
	var err error
	wall, cpu := timed(func() { rs, err = sweep.NewEngine().Run(context.Background(), g) })
	if err != nil {
		b.check(workload, "grid", nil, err)
		return ps, err
	}
	st := simStat{key: "grid", wall: wall, cpu: cpu}
	for _, r := range rs {
		key := pointKey(r.Point)
		b.check(workload, key, r.Sim, nil)
		st.instrs += r.Sim.Emu.Instructions
		st.points++
		ps.results = append(ps.results, r.Sim)
		ps.keys = append(ps.keys, key)
	}
	ps.sims = []simStat{st}
	return ps, nil
}

// probeStats summarises a workload's sampled runs.
type probeStats struct {
	errPct       float64 // mean |sampled IPC - full IPC| / full IPC, in percent
	detailedFrac float64 // detailed (warmed + measured) share of retired instructions
	windows      int
	halfWidth    float64 // mean 95% CI half-width of the IPC estimates
}

// runProbe runs the sampled configurations (or takes them from results
// already simulated) and compares each estimate with the stored
// full-timing IPC.
func (b *bench) runProbe(workload string, cfgs []sim.Config, done []*sim.Result) (probeStats, error) {
	var ps probeStats
	var detailed, total uint64
	for i, c := range cfgs {
		var res *sim.Result
		if done != nil {
			res = done[i]
		} else {
			var err error
			timed(func() { res, err = sim.Run(c) })
			b.check(workload, configKey(c), res, err)
			if err != nil {
				return ps, err
			}
		}
		key := configKey(c)
		if b.recording {
			full := c
			full.Sample = nil
			fr, err := sim.Run(full)
			if err != nil {
				return ps, err
			}
			exp := b.goldens[workload][key]
			exp.FullIPC = fr.Timing.IPC()
			b.goldens[workload][key] = exp
		}
		ref := b.goldens[workload][key].FullIPC
		if ref <= 0 || res.Sampled == nil {
			return ps, fmt.Errorf("%s %s: no full-timing IPC reference or sampled estimate", workload, key)
		}
		ps.errPct += math.Abs(res.Sampled.IPC.Mean-ref) / ref * 100
		ps.windows += res.Sampled.Windows
		ps.halfWidth += res.Sampled.IPCHalfWidth()
		detailed += res.Sampled.InstrsMeasured + res.Sampled.InstrsWarmed
		total += res.Emu.Instructions
	}
	n := float64(len(cfgs))
	ps.errPct /= n
	ps.halfWidth /= n
	ps.detailedFrac = float64(detailed) / float64(total)
	return ps, nil
}

// setupTimes is one repetition of a workload's set-up.
type setupTimes struct {
	build, predecode, construct time.Duration
}

func (s setupTimes) total() time.Duration { return s.build + s.predecode + s.construct }

// setupOnce builds every program the workload runs, predecodes it, and
// constructs one session per configuration (plus the sweep engine),
// without simulating anything.
func setupOnce(w *workload) (setupTimes, error) {
	type progKey struct {
		name  string
		scale int
	}
	var st setupTimes
	t0 := time.Now()
	progs := map[progKey]*isa.Program{}
	for _, c := range w.configs {
		k := progKey{c.Workload, c.Params.Scale}
		if progs[k] != nil {
			continue
		}
		p, err := sim.BuildProgram(c.Workload, c.Params, c.Variant)
		if err != nil {
			return st, err
		}
		progs[k] = p
	}
	t1 := time.Now()
	for _, p := range progs {
		if _, err := plan.For(p); err != nil {
			return st, err
		}
	}
	t2 := time.Now()
	if w.name == "sweep-grid" {
		_ = sweep.NewEngine()
	}
	for _, c := range w.configs {
		c.Program = progs[progKey{c.Workload, c.Params.Scale}]
		if _, err := sim.New(c.Workload, optionsOf(c)...); err != nil {
			return st, err
		}
	}
	t3 := time.Now()
	return setupTimes{build: t1.Sub(t0), predecode: t2.Sub(t1), construct: t3.Sub(t2)}, nil
}

// medianSetup repeats the set-up and returns the median of each part.
func medianSetup(w *workload) (total, build, predecode time.Duration, err error) {
	var tot, bld, pre []time.Duration
	for range setupReps {
		runtime.GC()
		st, err := setupOnce(w)
		if err != nil {
			return 0, 0, 0, err
		}
		tot = append(tot, st.total())
		bld = append(bld, st.build)
		pre = append(pre, st.predecode)
	}
	return medianDuration(tot), medianDuration(bld), medianDuration(pre), nil
}

// checkSplitRun runs c once uninterrupted with default delivery, and
// once with sync delivery split in half by a checkpoint that is
// serialized, reloaded and resumed; the two must agree exactly.
func checkSplitRun(c sim.Config) error {
	ref, err := sim.Run(c)
	if err != nil {
		return err
	}
	c.SyncTiming = true
	s, err := sim.New(c.Workload, optionsOf(c)...)
	if err != nil {
		return err
	}
	if _, err := s.RunFor(ref.Emu.Instructions / 2); err != nil {
		return err
	}
	ck, err := s.Checkpoint()
	if err != nil {
		return err
	}
	loaded, err := sim.LoadCheckpoint(ck.Bytes())
	if err != nil {
		return err
	}
	s2, err := sim.Resume(loaded)
	if err != nil {
		return err
	}
	if err := s2.Run(); err != nil {
		return err
	}
	return goldenOf(s2.Result()).compare(goldenOf(ref))
}

// checkSampledFunctional runs sampled configuration c and the same
// program emulator-only: sampling may change timing, never the retired
// instruction stream or the outputs.
func checkSampledFunctional(c sim.Config) error {
	res, err := sim.Run(c)
	if err != nil {
		return err
	}
	if res.Sampled == nil || res.Sampled.Windows < 2 || math.IsNaN(res.Sampled.IPC.Mean) {
		return fmt.Errorf("sampled run closed no usable windows")
	}
	f := c
	f.Sample, f.SkipTiming = nil, true
	ref, err := sim.Run(f)
	if err != nil {
		return err
	}
	got, want := goldenOf(res), goldenOf(ref)
	if got.Instructions != want.Instructions || got.OutputHash != want.OutputHash {
		return fmt.Errorf("sampled run retired %d instructions (output %#x), emulator-only %d (%#x)",
			got.Instructions, got.OutputHash, want.Instructions, want.OutputHash)
	}
	return nil
}

// ckptTimes is one warm-prefix checkpoint round trip.
type ckptTimes struct {
	bytes         int
	save, restore time.Duration
}

// warmFork runs c's functional prefix, checkpoints it, and resumes c
// with timing from the reloaded checkpoint — by hand, through the public
// sim calls, the way the sweep engine forks a warm-prefix point. The
// round trip repeats reps times; the last resumed session is returned.
func warmFork(c sim.Config, prefix uint64, reps int) (*sim.Session, []ckptTimes, error) {
	warm := c
	warm.Predictor, warm.Core, warm.Sample = sim.PredTAGESCL, nil, nil
	warm.SkipTiming, warm.MaxInstrs = true, prefix
	s, err := sim.New(warm.Workload, optionsOf(warm)...)
	if err != nil {
		return nil, nil, err
	}
	if err := s.Run(); err != nil {
		return nil, nil, err
	}
	var times []ckptTimes
	var resumed *sim.Session
	for range reps {
		t0 := time.Now()
		ck, err := s.Checkpoint()
		if err != nil {
			return nil, nil, err
		}
		data := ck.Bytes()
		t1 := time.Now()
		loaded, err := sim.LoadCheckpoint(data)
		if err != nil {
			return nil, nil, err
		}
		resumed, err = sim.Resume(loaded, optionsOf(c)...)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, ckptTimes{bytes: len(data), save: t1.Sub(t0), restore: time.Since(t1)})
	}
	return resumed, times, nil
}

// checkWarmFork runs sweep point p through a fresh engine and by hand
// through warmFork; both must agree exactly.
func checkWarmFork(p sweep.Point) error {
	g := sweep.Grid{
		Workloads:  []string{p.Workload},
		Predictors: []sim.PredictorKind{p.Predictor},
		PBS:        []bool{p.PBS},
		Widths:     []int{p.Width},
		Seeds:      []uint64{p.Seed},
		Scale:      p.Scale,
		WarmPrefix: p.WarmPrefix,
	}
	rs, err := sweep.NewEngine().Run(context.Background(), g)
	if err != nil {
		return err
	}
	s, _, err := warmFork(pointConfig(p), p.WarmPrefix, 1)
	if err != nil {
		return err
	}
	if err := s.Run(); err != nil {
		return err
	}
	return goldenOf(s.Result()).compare(goldenOf(rs[0].Sim))
}
