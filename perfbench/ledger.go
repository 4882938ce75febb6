package main

import (
	"fmt"
	"time"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The traced run rebuilds each configuration's machine from the layer
// constructors (emu.New, core.NewUnit, branch.New, pipeline.New,
// cache.NewHierarchy, trace.New) and times each layer from outside:
//
//   - the pipeline's ConsumeTrace calls are timed per batch;
//   - the predictor handed to the pipeline forwards to the real one and
//     records every Predict/Update; the record is replayed in chunks of
//     about 64K calls through a second, shadow predictor, timing each
//     chunk;
//   - each batch's I-line fetches (same-line streaks skipped, as the
//     pipeline does) and load/store addresses are replayed in chunks
//     through a shadow cache hierarchy;
//   - the emulator's self time is the run's wall time minus the time
//     spent in the trace sink.
//
// The pipeline's self time is its ConsumeTrace time minus the shadow
// predictor and cache times, so an error in a shadow timing moves
// between the pipeline row and the branch or cache row without showing
// in the residual.

const (
	predChunkCalls = 1 << 16
	cacheChunk     = 1 << 16
	// dataAccess marks a replayed cache access as a load or store; data
	// addresses stay far below bit 63.
	dataAccess = 1 << 63
)

// predOp is one recorded predictor call.
type predOp struct {
	pc     uint32
	update bool
	taken  bool
	pred   bool
}

// recPred forwards to the real predictor and records the call stream.
type recPred struct {
	branch.Predictor
	ops []predOp
}

func (r *recPred) Predict(pc uint64) bool {
	p := r.Predictor.Predict(pc)
	r.ops = append(r.ops, predOp{pc: uint32(pc), pred: p})
	return p
}

func (r *recPred) Update(pc uint64, taken, pred bool) {
	r.Predictor.Update(pc, taken, pred)
	r.ops = append(r.ops, predOp{pc: uint32(pc), update: true, taken: taken, pred: pred})
}

// shadowPred replays a recorded call stream through a fresh predictor
// of the same kind, which must return the recorded prediction on every
// call.
type shadowPred struct {
	p                          branch.Predictor
	calls, correct, mismatches uint64
	ns                         time.Duration
}

func (s *shadowPred) replay(ops []predOp) {
	t0 := time.Now()
	for i := range ops {
		op := &ops[i]
		if !op.update {
			if s.p.Predict(uint64(op.pc)) != op.pred {
				s.mismatches++
			}
			continue
		}
		s.p.Update(uint64(op.pc), op.taken, op.pred)
		s.calls++
		if op.taken == op.pred {
			s.correct++
		}
	}
	s.ns += time.Since(t0)
}

// shadowCache replays cache accesses through a separate hierarchy built
// with the pipeline's cache configuration.
type shadowCache struct {
	h        *cache.Hierarchy
	accesses uint64
	ns       time.Duration
}

func (s *shadowCache) replay(acc []uint64) {
	t0 := time.Now()
	for _, a := range acc {
		if a&dataAccess != 0 {
			s.h.DataLatency(a &^ dataAccess)
		} else {
			s.h.InstrLatency(a)
		}
	}
	s.ns += time.Since(t0)
	s.accesses += uint64(len(acc))
}

// ledgerSink is the trace sink of a traced sync run: it times the
// pipeline and feeds the shadow layers outside that timing.
type ledgerSink struct {
	pipe       *pipeline.Pipeline
	code       []plan.Decoded
	iShift     uint
	lastIBlock uint64
	rec        *recPred
	sp         *shadowPred
	sc         *shadowCache
	acc        []uint64

	consume, inSink time.Duration
}

func (s *ledgerSink) ConsumeTrace(batch []emu.DynInstr) {
	t0 := time.Now()
	s.pipe.ConsumeTrace(batch)
	s.consume += time.Since(t0)
	for i := range batch {
		di := &batch[i]
		if ib := uint64(di.PC) >> s.iShift; ib != s.lastIBlock {
			s.lastIBlock = ib
			s.acc = append(s.acc, uint64(di.PC)*8)
		}
		if s.code[di.PC].Flags&(plan.FLoad|plan.FStore) != 0 {
			s.acc = append(s.acc, di.MemAddr|dataAccess)
		}
	}
	if len(s.acc) >= cacheChunk {
		s.flushCache()
	}
	if len(s.rec.ops) >= 2*predChunkCalls {
		s.flushPred()
	}
	s.inSink += time.Since(t0)
}

func (s *ledgerSink) flushCache() {
	s.sc.replay(s.acc)
	s.acc = s.acc[:0]
}

func (s *ledgerSink) flushPred() {
	s.sp.replay(s.rec.ops)
	s.rec.ops = s.rec.ops[:0]
}

// machine is one configuration rebuilt from the layer constructors.
type machine struct {
	cpu  *emu.CPU
	pipe *pipeline.Pipeline
	pcfg pipeline.Config
	plan *plan.Plan
}

func newMachine(c sim.Config, pred branch.Predictor) (*machine, error) {
	prog, err := sim.BuildProgram(c.Workload, c.Params, c.Variant)
	if err != nil {
		return nil, err
	}
	pl, err := plan.For(prog)
	if err != nil {
		return nil, err
	}
	var unit *core.Unit
	if c.PBS {
		if unit, err = core.NewUnit(core.DefaultConfig()); err != nil {
			return nil, err
		}
	}
	cpu, err := emu.New(prog, rng.New(c.Seed), unit)
	if err != nil {
		return nil, err
	}
	pcfg := pipeline.FourWide()
	if c.Core != nil {
		pcfg = *c.Core
	}
	pipe, err := pipeline.New(pcfg, prog, pred)
	if err != nil {
		return nil, err
	}
	return &machine{cpu: cpu, pipe: pipe, pcfg: pcfg, plan: pl}, nil
}

// tracedRep is one traced sync run of a configuration.
type tracedRep struct {
	instrs                         uint64
	run, inSink, consume           time.Duration
	pred, cache                    time.Duration
	predCalls, predCorrect         uint64
	cacheAccesses                  uint64
	l1dAccesses, l1dMisses         uint64
	metrics                        pipeline.Metrics
	shadowL1I, shadowL1D, shadowL2 uint64
	mismatches                     uint64
}

func (r tracedRep) emu() time.Duration { return r.run - r.inSink }

func (r tracedRep) pipeline() time.Duration { return r.consume - r.pred - r.cache }

// tracedRun runs c synchronously with every layer timed.
func tracedRun(c sim.Config) (tracedRep, error) {
	inner, err := branch.New(string(c.Predictor))
	if err != nil {
		return tracedRep{}, err
	}
	shadow, err := branch.New(string(c.Predictor))
	if err != nil {
		return tracedRep{}, err
	}
	rec := &recPred{Predictor: inner}
	m, err := newMachine(c, rec)
	if err != nil {
		return tracedRep{}, err
	}
	hier, err := cache.NewHierarchy(m.pcfg.L1I, m.pcfg.L1D, m.pcfg.L2, m.pcfg.MemLatency)
	if err != nil {
		return tracedRep{}, err
	}
	sink := &ledgerSink{
		pipe:       m.pipe,
		code:       m.plan.Code,
		lastIBlock: ^uint64(0),
		rec:        rec,
		sp:         &shadowPred{p: shadow},
		sc:         &shadowCache{h: hier},
	}
	// Instructions are 8 bytes: PC >> iShift is the fetch line, as in
	// the pipeline's own streak rule.
	for lb := m.pcfg.L1I.LineBytes; lb > 8; lb >>= 1 {
		sink.iShift++
	}
	m.cpu.SetTraceSink(sink)
	t0 := time.Now()
	err = m.cpu.Run(c.MaxInstrs)
	run := time.Since(t0)
	if err != nil {
		return tracedRep{}, err
	}
	sink.flushCache()
	sink.flushPred()
	return tracedRep{
		instrs:        m.cpu.Stats().Instructions,
		run:           run,
		inSink:        sink.inSink,
		consume:       sink.consume,
		pred:          sink.sp.ns,
		cache:         sink.sc.ns,
		predCalls:     sink.sp.calls,
		predCorrect:   sink.sp.correct,
		cacheAccesses: sink.sc.accesses,
		l1dAccesses:   hier.L1D.Hits + hier.L1D.Misses,
		l1dMisses:     hier.L1D.Misses,
		metrics:       m.pipe.Metrics(),
		shadowL1I:     hier.L1I.Misses,
		shadowL1D:     hier.L1D.Misses,
		shadowL2:      hier.L2.Misses,
		mismatches:    sink.sp.mismatches,
	}, nil
}

// selfCheck verifies a traced run against the untraced result of the
// same configuration: identical timing metrics, a shadow predictor that
// agreed on every call, and shadow cache misses equal to the pipeline's.
func (r tracedRep) selfCheck(untraced pipeline.Metrics) error {
	if r.metrics != untraced {
		return fmt.Errorf("traced pipeline metrics %+v differ from sim.Run's %+v", r.metrics, untraced)
	}
	if r.mismatches != 0 {
		return fmt.Errorf("shadow predictor disagreed with the recorded prediction on %d calls", r.mismatches)
	}
	if r.shadowL1I != r.metrics.L1IMisses || r.shadowL1D != r.metrics.L1DMisses || r.shadowL2 != r.metrics.L2Misses {
		return fmt.Errorf("shadow cache misses L1I/L1D/L2 %d/%d/%d, pipeline %d/%d/%d",
			r.shadowL1I, r.shadowL1D, r.shadowL2, r.metrics.L1IMisses, r.metrics.L1DMisses, r.metrics.L2Misses)
	}
	return nil
}

// timedRing wraps the trace ring's producer side, timing how long the
// emulator blocks handing batches over.
type timedRing struct {
	ring *trace.Ring
	wait time.Duration
}

func (t *timedRing) Exchange(filled []emu.DynInstr) []emu.DynInstr {
	t0 := time.Now()
	next := t.ring.Exchange(filled)
	t.wait += time.Since(t0)
	return next
}

// timedSink wraps the pipeline on the ring's consumer side.
type timedSink struct {
	pipe *pipeline.Pipeline
	busy time.Duration
}

func (t *timedSink) ConsumeTrace(batch []emu.DynInstr) {
	t0 := time.Now()
	t.pipe.ConsumeTrace(batch)
	t.busy += time.Since(t0)
}

// asyncRep is one instrumented asynchronous run.
type asyncRep struct {
	producer, wait time.Duration // emulator goroutine: wall, blocked in Exchange
	consumer, busy time.Duration // consumer goroutine: wall, inside ConsumeTrace
	metrics        pipeline.Metrics
}

// asyncRun runs c with the trace handed through a trace.Ring to a
// consumer goroutine, as a default two-CPU session does.
func asyncRun(c sim.Config) (asyncRep, error) {
	pred, err := branch.New(string(c.Predictor))
	if err != nil {
		return asyncRep{}, err
	}
	m, err := newMachine(c, pred)
	if err != nil {
		return asyncRep{}, err
	}
	ring := trace.New(trace.DefaultBatches)
	tr := &timedRing{ring: ring}
	ts := &timedSink{pipe: m.pipe}
	done := make(chan time.Duration)
	t0 := time.Now()
	go func() {
		ring.Serve(ts)
		done <- time.Since(t0)
	}()
	m.cpu.SetTraceRing(tr)
	err = m.cpu.Run(c.MaxInstrs)
	producer := time.Since(t0)
	ring.Stop()
	consumer := <-done
	if err != nil {
		return asyncRep{}, err
	}
	return asyncRep{producer: producer, wait: tr.wait, consumer: consumer, busy: ts.busy, metrics: m.pipe.Metrics()}, nil
}
