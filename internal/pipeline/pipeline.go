// Package pipeline is the trace-driven out-of-order timing model of the
// reproduction. It consumes the retired-instruction stream of the
// functional emulator — batch-wise through emu.TraceSink, or one
// instruction at a time through OnRetire — and computes cycle timing for
// an aggressive superscalar core: fetch bandwidth with one taken branch
// per cycle, front-end depth, ROB occupancy, register dataflow,
// functional unit pools, a two-level cache hierarchy, and the 10-cycle
// front-end refill penalty on branch mispredictions (§VI-B).
//
// All static per-instruction properties — functional unit class, latency,
// occupancy, source/destination register sets, branch kind — come from
// the program's predecoded execution plan (internal/plan), so the retire
// path recomputes nothing that does not change between dynamic instances.
//
// Probabilistic branches steered by PBS never consult the predictor and
// never pay the penalty; bootstrap and regular-mode probabilistic branches
// are predicted like ordinary branches. The FilterProb mode implements the
// negative-interference experiment of §VII-C.
package pipeline

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/plan"
)

// Config fixes the core microarchitecture.
type Config struct {
	Width             int // fetch/issue/commit width
	ROBSize           int
	FrontendDepth     int // cycles between fetch and earliest issue
	MispredictPenalty int // front-end refill cycles after branch resolution

	IntALUs     int
	FPUs        int
	MemPorts    int
	BranchUnits int

	L1I, L1D, L2 cache.Config
	MemLatency   int

	// FilterProb removes probabilistic branches from predictor access and
	// update (the Fig 9 interference experiment). Their mispredictions are
	// neither counted nor penalised; regular-branch MPKI is the metric.
	FilterProb bool

	// PerfectBranches models an oracle front end: no branch ever
	// mispredicts. An upper-bound ablation, not a realistic configuration.
	PerfectBranches bool

	// ResolutionPenalty selects how a misprediction's cost is charged.
	// False (default) reproduces the mechanistic accounting of the
	// paper's simulator (Sniper): fetch restarts MispredictPenalty cycles
	// after the branch leaves the front end, modelling the squash +
	// re-fill without charging the branch's full operand-dependence
	// resolution time. True charges the honest dataflow cost: fetch
	// restarts MispredictPenalty cycles after the branch actually
	// executes, however deep its operand chain. The second model makes
	// eliminating probabilistic branches — whose operands sit at the end
	// of long random-value chains — even more valuable; it is reported as
	// an ablation in EXPERIMENTS.md.
	ResolutionPenalty bool
}

// FourWide is the paper's baseline core: 4-wide out-of-order, 168-entry
// ROB (Sandy Bridge-like), 10-cycle misprediction penalty.
func FourWide() Config {
	return Config{
		Width:             4,
		ROBSize:           168,
		FrontendDepth:     6,
		MispredictPenalty: 10,
		IntALUs:           4,
		FPUs:              2,
		MemPorts:          2,
		BranchUnits:       1,
		L1I:               cache.L1I32K(),
		L1D:               cache.L1D32K(),
		L2:                cache.L2Unified2M(),
		MemLatency:        100,
	}
}

// EightWide is the wider core of Fig 8: 8-wide, 256-entry ROB.
func EightWide() Config {
	c := FourWide()
	c.Width = 8
	c.ROBSize = 256
	c.IntALUs = 8
	c.FPUs = 4
	c.MemPorts = 4
	c.BranchUnits = 2
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Width < 1:
		return fmt.Errorf("pipeline: Width must be >= 1")
	case c.ROBSize < c.Width:
		return fmt.Errorf("pipeline: ROBSize %d smaller than Width %d", c.ROBSize, c.Width)
	case c.IntALUs < 1 || c.FPUs < 1 || c.MemPorts < 1 || c.BranchUnits < 1:
		return fmt.Errorf("pipeline: all functional unit counts must be >= 1")
	case c.MispredictPenalty < 0 || c.FrontendDepth < 0:
		return fmt.Errorf("pipeline: negative pipeline depths")
	}
	return nil
}

// Metrics aggregates timing and branch statistics for one run.
type Metrics struct {
	Instructions uint64
	Cycles       uint64

	Branches     uint64 // all control transfers
	CondBranches uint64 // conditional branches (incl. probabilistic)
	ProbBranches uint64 // dynamic probabilistic (terminal PROB_JMP) branches
	ProbSteered  uint64
	ProbBoot     uint64
	ProbRegular  uint64

	Mispredicts     uint64 // total counted mispredictions
	MispredictsProb uint64 // from probabilistic branches
	MispredictsReg  uint64 // from regular branches

	L1IMisses, L1DMisses, L2Misses uint64
	L1IAccesses, L1DAccesses       uint64
}

// Delta returns the change from prev to m: every counter is m's value
// minus prev's. prev must be an earlier sample of the same pipeline, so
// counters never decrease. Interval rates fall out directly: the IPC
// over a window is cur.Delta(base).IPC().
func (m Metrics) Delta(prev Metrics) Metrics {
	m.Instructions -= prev.Instructions
	m.Cycles -= prev.Cycles
	m.Branches -= prev.Branches
	m.CondBranches -= prev.CondBranches
	m.ProbBranches -= prev.ProbBranches
	m.ProbSteered -= prev.ProbSteered
	m.ProbBoot -= prev.ProbBoot
	m.ProbRegular -= prev.ProbRegular
	m.Mispredicts -= prev.Mispredicts
	m.MispredictsProb -= prev.MispredictsProb
	m.MispredictsReg -= prev.MispredictsReg
	m.L1IMisses -= prev.L1IMisses
	m.L1DMisses -= prev.L1DMisses
	m.L2Misses -= prev.L2Misses
	m.L1IAccesses -= prev.L1IAccesses
	m.L1DAccesses -= prev.L1DAccesses
	return m
}

// IPC returns retired instructions per cycle.
func (m Metrics) IPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Instructions) / float64(m.Cycles)
}

// CPI returns cycles per retired instruction (0 before any retire).
func (m Metrics) CPI() float64 {
	if m.Instructions == 0 {
		return 0
	}
	return float64(m.Cycles) / float64(m.Instructions)
}

// MPKI returns mispredictions per 1000 instructions.
func (m Metrics) MPKI() float64 {
	if m.Instructions == 0 {
		return 0
	}
	return 1000 * float64(m.Mispredicts) / float64(m.Instructions)
}

// MPKIProb returns probabilistic-branch mispredictions per 1000
// instructions.
func (m Metrics) MPKIProb() float64 {
	if m.Instructions == 0 {
		return 0
	}
	return 1000 * float64(m.MispredictsProb) / float64(m.Instructions)
}

// MPKIReg returns regular-branch mispredictions per 1000 instructions.
func (m Metrics) MPKIReg() float64 {
	if m.Instructions == 0 {
		return 0
	}
	return 1000 * float64(m.MispredictsReg) / float64(m.Instructions)
}

// fuWindow is the backfill scheduler's time-ring size in cycles. It must
// exceed the maximum spread of concurrently scheduled issue times (bounded
// by the ROB-induced fetch window plus the longest latency); cells older
// than one window are recycled lazily.
const fuWindow = 1 << 14

// fuSched models functional-unit contention with backfill, the way an
// out-of-order scheduler fills idle issue slots: for every cycle and unit
// class it counts operations in flight, and an operation issues at the
// first cycle >= its ready time with a free unit for its whole occupancy.
// A plain per-unit next-free-time reservation would serialise issue in
// program order — an op stalled on operands would block younger,
// already-ready ops from slots the hardware would happily give them.
type fuSched struct {
	units [plan.NumFUClasses]uint8
	cells [plan.NumFUClasses][fuWindow]fuCell
}

// fuCell packs one time-ring cell as cycle<<8 | count: cycles stay below
// 2^56 for any feasible run, counts below the 8-bit unit cap. Halving the
// cell to one word keeps the ring's hot region in cache.
type fuCell uint64

func (c fuCell) cycle() uint64 { return uint64(c) >> 8 }
func (c fuCell) count() uint8  { return uint8(c) }

// schedule returns the issue cycle for an operation of the given class
// that becomes ready at `ready` and occupies its unit for occ cycles.
func (s *fuSched) schedule(class plan.FUClass, ready, occ uint64) uint64 {
	units := s.units[class]
	cells := &s.cells[class]
	if occ == 1 {
		// Fast path for fully pipelined operations (the vast majority):
		// one cell probe per candidate cycle.
		for t := ready; ; t++ {
			c := &cells[t&(fuWindow-1)]
			if c.cycle() != t {
				*c = fuCell(t<<8 | 1)
				return t
			}
			if c.count() < units {
				*c++
				return t
			}
		}
	}
	if occ > fuWindow/2 {
		occ = fuWindow / 2
	}
	for t := ready; ; t++ {
		ok := true
		for k := uint64(0); k < occ; k++ {
			c := cells[(t+k)&(fuWindow-1)]
			if c.cycle() == t+k && c.count() >= units {
				ok = false
				t += k // skip past the congested cycle
				break
			}
		}
		if !ok {
			continue
		}
		for k := uint64(0); k < occ; k++ {
			c := &cells[(t+k)&(fuWindow-1)]
			if c.cycle() != t+k {
				*c = fuCell((t + k) << 8)
			}
			*c++
		}
		return t
	}
}

// Pipeline is the timing model for one run. It consumes the emulator's
// trace batch-wise (ConsumeTrace, the emu.TraceSink contract) or per
// instruction (OnRetire, the legacy Listener contract).
type Pipeline struct {
	cfg  Config
	prog *isa.Program
	plan *plan.Plan
	pred branch.Predictor
	hier *cache.Hierarchy

	m Metrics

	// fetch state
	curFetchCycle     uint64
	fetchedInCycle    int
	breakFetch        bool // a taken branch ends the current fetch cycle
	fetchBlockedUntil uint64

	// dataflow
	regReady [isa.NumDataflowRegs]uint64

	// in-order structures (ring buffers). robPos and commitPos are the
	// wrapped cursors idx%ROBSize and idx%Width, maintained incrementally
	// so the retire path divides by nothing.
	robRing    []uint64 // commit cycle of instruction idx-ROBSize
	commitRing []uint64 // commit cycle of instruction idx-Width
	robPos     int
	commitPos  int
	lastCommit uint64
	idx        uint64

	// precomputed config values on the hot path
	robSize64 uint64
	feDepth   uint64
	misPen    uint64
	l1iHitLat int
	l1dHitLat int
	l2HitLat  int

	// latTiered: the hierarchy's latencies are strictly increasing
	// (L1 hit < L2 hit < memory), so a returned latency identifies the
	// level that served the access and the per-level miss counters can
	// be derived from it instead of sampled around every access. Any
	// degenerate configuration falls back to counter deltas.
	latTiered bool

	// L1I fetch-streak state: consecutive fetches from the line of the
	// previous fetch bypass the cache model (see retire). iblockShift
	// maps an instruction index to its line number; lastIBlock starts at
	// a value no real fetch produces.
	iblockShift uint
	lastIBlock  uint64

	// functional units: backfill scheduler
	fus fuSched

	// Sampled-timing window state (see internal/sample and
	// sim.WithSampledTiming). winBase is the resettable delta baseline:
	// BeginWindow copies the live counters into it, WindowDelta
	// subtracts it back out, so a measurement window's metrics cost two
	// struct copies rather than a second counter set on the retire path.
	// warming flags the detailed-warming phase — the model runs at full
	// fidelity either way (warming exists precisely to update predictor
	// and cache state), so the flag steers only what the session does
	// with the counters, never the timing itself.
	winBase Metrics
	warming bool

	// funcWarm switches ConsumeTrace to the functional-warming path:
	// caches and predictor keep evolving (tag/history state only — no
	// cycle accounting, no Metrics movement), so a later measurement
	// window does not see state that went stale across a fast-forward
	// gap. The flag is owned by the session and only flipped between
	// trace batches, so no batch sees a mid-batch change.
	funcWarm bool

	// DebugBlock, when set, is invoked whenever a misprediction pushes
	// fetchBlockedUntil forward (diagnostics only).
	DebugBlock func(pc int32, op isa.Op, execDone, until uint64)
	// DebugInstr, when set, is invoked per instruction with its timing
	// (diagnostics only).
	DebugInstr func(pc int32, op isa.Op, fc, issue, execDone uint64)
}

// New builds a pipeline bound to a program, predictor and fresh caches.
// The program must not be mutated afterwards (its decoded execution plan
// is shared read-only; see internal/plan).
func New(cfg Config, prog *isa.Program, pred branch.Predictor) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pl, err := plan.For(prog)
	if err != nil {
		return nil, err
	}
	hier, err := cache.NewHierarchy(cfg.L1I, cfg.L1D, cfg.L2, cfg.MemLatency)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:        cfg,
		prog:       prog,
		plan:       pl,
		pred:       pred,
		hier:       hier,
		robRing:    make([]uint64, cfg.ROBSize),
		commitRing: make([]uint64, cfg.Width),
		robSize64:  uint64(cfg.ROBSize),
		feDepth:    uint64(cfg.FrontendDepth),
		misPen:     uint64(cfg.MispredictPenalty),
		l1iHitLat:  cfg.L1I.HitLatency,
		l1dHitLat:  cfg.L1D.HitLatency,
		l2HitLat:   cfg.L2.HitLatency,
		lastIBlock: ^uint64(0),
	}
	p.latTiered = cfg.L1I.HitLatency < cfg.L2.HitLatency &&
		cfg.L1D.HitLatency < cfg.L2.HitLatency &&
		cfg.L2.HitLatency < cfg.MemLatency
	// Instructions are 8 bytes, so PC>>(log2(LineBytes)-3) is the fetch
	// line number (line sizes below 8 bytes degrade to per-PC streaks,
	// which are still sound: the same PC fetches the same line).
	for lb := cfg.L1I.LineBytes; lb > 8; lb >>= 1 {
		p.iblockShift++
	}
	p.fus.units[plan.FUALU] = uint8(cfg.IntALUs)
	p.fus.units[plan.FUMul] = 1
	p.fus.units[plan.FUDiv] = 1
	p.fus.units[plan.FUFP] = uint8(cfg.FPUs)
	p.fus.units[plan.FUFDiv] = 1
	p.fus.units[plan.FUFLong] = 1
	p.fus.units[plan.FUMem] = uint8(cfg.MemPorts)
	p.fus.units[plan.FUBranch] = uint8(cfg.BranchUnits)
	return p, nil
}

// ConsumeTrace implements emu.TraceSink: it retires one batch of
// instructions in program order. Pass the pipeline to
// emu.CPU.SetTraceSink.
func (p *Pipeline) ConsumeTrace(batch []emu.DynInstr) {
	if p.funcWarm {
		for i := range batch {
			p.warmRetire(&batch[i])
		}
		return
	}
	for i := range batch {
		p.retire(&batch[i])
	}
}

// OnRetire consumes one retired instruction (the legacy per-instruction
// path; pass it to emu.CPU.SetListener).
func (p *Pipeline) OnRetire(di emu.DynInstr) {
	if p.funcWarm {
		p.warmRetire(&di)
		return
	}
	p.retire(&di)
}

// SetFuncWarm flips the functional-warming consume path. Callers must
// only flip it between trace batches (after the emulator flushed).
func (p *Pipeline) SetFuncWarm(on bool) { p.funcWarm = on }

// warmRetire is the functional-warming counterpart of retire: it feeds
// the instruction's cache and predictor footprint through the models —
// the same accesses, the same update policy, the same streak bypass as
// the detailed path — and nothing else. No cycle accounting, no fetch
// or dataflow modelling, no Metrics movement; the long-lived state that
// survives a fast-forward gap (cache tags, predictor tables and
// histories) stays exactly what a detailed run would have left behind.
func (p *Pipeline) warmRetire(di *emu.DynInstr) {
	d := &p.plan.Code[di.PC]
	if iblock := uint64(di.PC) >> p.iblockShift; iblock != p.lastIBlock {
		p.lastIBlock = iblock
		p.hier.InstrLatency(uint64(di.PC) * 8)
	} else {
		p.hier.L1I.Hits++
	}
	if d.Flags&(plan.FLoad|plan.FStore) != 0 {
		p.hier.DataLatency(di.MemAddr)
	}
	if d.Flags&plan.FBranch == 0 || d.Flags&(plan.FMidProb|plan.FCond) != plan.FCond || p.cfg.PerfectBranches {
		return
	}
	if di.Prob != emu.ProbNone && (di.Prob == emu.ProbSteered || p.cfg.FilterProb) {
		// Steered and filtered probabilistic branches never touch the
		// predictor in the detailed path either.
		return
	}
	pred := p.pred.Predict(uint64(di.PC))
	p.pred.Update(uint64(di.PC), di.Taken, pred)
}

// retire advances the timing model by one retired instruction.
func (p *Pipeline) retire(di *emu.DynInstr) {
	d := &p.plan.Code[di.PC]

	// ---- fetch ----
	fc := p.curFetchCycle
	if p.breakFetch || p.fetchedInCycle >= p.cfg.Width {
		fc++
		p.fetchedInCycle = 0
		p.breakFetch = false
	}
	if p.fetchBlockedUntil > fc {
		fc = p.fetchBlockedUntil
		p.fetchedInCycle = 0
	}
	// ROB occupancy: the slot of instruction idx-ROBSize must have
	// committed before this instruction can enter the window.
	if p.idx >= p.robSize64 {
		if free := p.robRing[p.robPos]; free > fc {
			fc = free
			p.fetchedInCycle = 0
		}
	}
	// Instruction cache. A fetch from the same line as the previous
	// fetch bypasses the cache model: the line is resident (whatever
	// filled it left it so, and no other instruction line has been
	// touched since), so it is a hit with no stall. The bypass keeps
	// miss counts byte-identical to touching the cache every fetch —
	// within a streak no other line is accessed, so the skipped LRU
	// updates cannot reorder any set — and straight-line code makes the
	// streak the common case (one Access per line instead of per
	// instruction).
	p.m.L1IAccesses++
	if iblock := uint64(di.PC) >> p.iblockShift; iblock != p.lastIBlock {
		p.lastIBlock = iblock
		if p.latTiered {
			if lat := p.hier.InstrLatency(uint64(di.PC) * 8); lat > p.l1iHitLat {
				p.m.L1IMisses++
				if lat > p.l2HitLat {
					p.m.L2Misses++
				}
				fc += uint64(lat)
				p.fetchedInCycle = 0
			}
		} else {
			l1iMissBefore := p.hier.L1I.Misses
			l2MissBefore := p.hier.L2.Misses
			if lat := p.hier.InstrLatency(uint64(di.PC) * 8); lat > p.l1iHitLat {
				fc += uint64(lat)
				p.fetchedInCycle = 0
			}
			p.m.L1IMisses += p.hier.L1I.Misses - l1iMissBefore
			p.m.L2Misses += p.hier.L2.Misses - l2MissBefore
		}
	} else {
		p.hier.L1I.Hits++ // keep the cache's own counters consistent
	}
	if fc > p.curFetchCycle {
		p.curFetchCycle = fc
	}
	p.fetchedInCycle++

	// ---- issue / execute ----
	issue := fc + p.feDepth
	for i := 0; i < int(d.NSrc); i++ {
		if rr := p.regReady[d.Src[i]]; rr > issue {
			issue = rr
		}
	}
	lat := uint64(d.Lat)
	issue = p.fus.schedule(d.FU, issue, uint64(d.Occ))

	if d.Flags&(plan.FLoad|plan.FStore) != 0 {
		p.m.L1DAccesses++
		var dlat int
		if p.latTiered {
			dlat = p.hier.DataLatency(di.MemAddr)
			if dlat > p.l1dHitLat {
				p.m.L1DMisses++
				if dlat > p.l2HitLat {
					p.m.L2Misses++
				}
			}
		} else {
			l1dMissBefore := p.hier.L1D.Misses
			l2MissBefore := p.hier.L2.Misses
			dlat = p.hier.DataLatency(di.MemAddr)
			p.m.L1DMisses += p.hier.L1D.Misses - l1dMissBefore
			p.m.L2Misses += p.hier.L2.Misses - l2MissBefore
		}
		if d.Flags&plan.FLoad != 0 {
			lat = uint64(dlat)
		}
		// Stores retire without blocking (write buffer); latency stays 1.
	}
	execDone := issue + lat

	for i := 0; i < int(d.NDst); i++ {
		p.regReady[d.Dst[i]] = execDone
	}
	if p.DebugInstr != nil {
		p.DebugInstr(di.PC, d.Op, fc, issue, execDone)
	}

	// ---- branches ----
	if d.Flags&plan.FBranch != 0 {
		p.handleBranch(di, d, fc, execDone)
	}

	// ---- commit ----
	cc := execDone + 1
	if cc < p.lastCommit {
		cc = p.lastCommit
	}
	if prev := p.commitRing[p.commitPos] + 1; cc < prev {
		cc = prev
	}
	p.commitRing[p.commitPos] = cc
	p.robRing[p.robPos] = cc
	p.lastCommit = cc
	// cc is clamped to at least the previous commit cycle above, so the
	// running cycle count is simply the latest commit.
	p.m.Cycles = cc
	p.idx++
	if p.commitPos++; p.commitPos == p.cfg.Width {
		p.commitPos = 0
	}
	if p.robPos++; p.robPos == p.cfg.ROBSize {
		p.robPos = 0
	}
	p.m.Instructions++
}

// handleBranch performs prediction accounting and misprediction redirects.
// fc is the branch's fetch cycle, execDone its execution-complete cycle.
func (p *Pipeline) handleBranch(di *emu.DynInstr, d *plan.Decoded, fc, execDone uint64) {
	p.m.Branches++
	if d.Flags&plan.FMidProb != 0 {
		return // intermediate value-transfer PROB_JMP: not a control transfer
	}
	if di.Taken {
		p.breakFetch = true
	}
	if d.Flags&plan.FCond == 0 {
		// JMP/CALL/RET: target from BTB/RAS, assumed perfect.
		return
	}
	p.m.CondBranches++
	if p.cfg.PerfectBranches {
		return
	}

	isProb := di.Prob != emu.ProbNone
	if isProb {
		p.m.ProbBranches++
		switch di.Prob {
		case emu.ProbSteered:
			p.m.ProbSteered++
			// Direction known at fetch (Prob-BTB): no prediction, no
			// penalty, no predictor pollution.
			return
		case emu.ProbBootstrap:
			p.m.ProbBoot++
		case emu.ProbRegular:
			p.m.ProbRegular++
		}
		if p.cfg.FilterProb {
			// Interference experiment: probabilistic branches neither
			// access nor update the predictor.
			return
		}
	}

	pred := p.pred.Predict(uint64(di.PC))
	p.pred.Update(uint64(di.PC), di.Taken, pred)
	if pred != di.Taken {
		p.m.Mispredicts++
		if isProb {
			p.m.MispredictsProb++
		} else {
			p.m.MispredictsReg++
		}
		resolved := fc + p.feDepth + 1
		if p.cfg.ResolutionPenalty || execDone < resolved {
			resolved = execDone
		}
		redirect := resolved + p.misPen
		if redirect > p.fetchBlockedUntil {
			p.fetchBlockedUntil = redirect
			if p.DebugBlock != nil {
				p.DebugBlock(di.PC, d.Op, execDone, redirect)
			}
		}
	}
}

// Metrics returns the accumulated metrics. Call after the emulator run
// completes (with a TraceSink attachment, after the final flush).
func (p *Pipeline) Metrics() Metrics { return p.m }

// SetWarming flips the detailed-warming flag. While warming the model
// simulates at full fidelity (that is the point — predictor, cache and
// pipeline state keep evolving) but the session excludes the interval
// from the measured-window population.
func (p *Pipeline) SetWarming(on bool) { p.warming = on }

// Warming reports whether the pipeline is in the detailed-warming phase.
func (p *Pipeline) Warming() bool { return p.warming }

// BeginWindow resets the delta baseline: a following WindowDelta covers
// exactly the instructions retired since this call.
func (p *Pipeline) BeginWindow() { p.winBase = p.m }

// WindowDelta returns the counters accumulated since BeginWindow.
func (p *Pipeline) WindowDelta() Metrics { return p.m.Delta(p.winBase) }

// WindowBase returns the current delta baseline (checkpoint support).
func (p *Pipeline) WindowBase() Metrics { return p.winBase }

// SetWindowBase restores a delta baseline (checkpoint support).
func (p *Pipeline) SetWindowBase(m Metrics) { p.winBase = m }

// Caches exposes the cache hierarchy for inspection.
func (p *Pipeline) Caches() *cache.Hierarchy { return p.hier }
