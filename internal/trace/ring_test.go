package trace

import (
	"sync"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/progb"
	"repro/internal/rng"
	"repro/internal/workloads"
)

// orderSink records the PC stream and which buffers delivered it.
type orderSink struct {
	pcs  []int32
	bufs map[*emu.DynInstr]bool // distinct buffer identities seen
}

func (s *orderSink) ConsumeTrace(batch []emu.DynInstr) {
	for i := range batch {
		s.pcs = append(s.pcs, batch[i].PC)
	}
	if s.bufs == nil {
		s.bufs = make(map[*emu.DynInstr]bool)
	}
	s.bufs[&batch[:1][0]] = true
}

// TestRingDeliversInOrder: batches arrive at the sink in production
// order, buffers are recycled (the ring allocates nothing after New),
// and Drain/Stop see everything produced before them.
func TestRingDeliversInOrder(t *testing.T) {
	for _, size := range []int{1, 2, 4} {
		r := New(size)
		sink := &orderSink{}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Serve(sink)
		}()

		const batches = 100
		buf := r.Exchange(nil)[:0]
		next := int32(0)
		for b := 0; b < batches; b++ {
			n := 1 + b%emu.TraceBatch // vary batch fill, incl. partial
			for i := 0; i < n; i++ {
				buf = append(buf, emu.DynInstr{PC: next})
				next++
			}
			buf = r.Exchange(buf)[:0]
		}
		r.Drain()
		if len(sink.pcs) != int(next) {
			t.Fatalf("size %d: sink saw %d instructions after Drain, want %d", size, len(sink.pcs), next)
		}
		r.Stop()
		wg.Wait()
		for i, pc := range sink.pcs {
			if pc != int32(i) {
				t.Fatalf("size %d: instruction %d out of order (pc %d)", size, i, pc)
			}
		}
		if len(sink.bufs) > size {
			t.Errorf("size %d: %d distinct buffers delivered, ring owns only %d", size, len(sink.bufs), size)
		}
	}
}

// TestRingServeRestart: Stop joins the consumer so a new Serve can take
// over the same ring; nothing delivered between the two is lost.
func TestRingServeRestart(t *testing.T) {
	r := New(2)
	sink := &orderSink{}
	// Like the CPU, the producer holds one buffer for the ring's whole
	// life, exchanging it across Serve sessions rather than re-requesting
	// (abandoning a held buffer would shrink the ring).
	buf := r.Exchange(nil)[:0]
	for phase := 0; phase < 3; phase++ {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Serve(sink)
		}()
		buf = append(buf[:0], emu.DynInstr{PC: int32(phase)})
		buf = r.Exchange(buf)[:0]
		r.Stop()
		wg.Wait()
	}
	if len(sink.pcs) != 3 {
		t.Fatalf("sink saw %d instructions across restarts, want 3", len(sink.pcs))
	}
}

// TestRingEmptyExchangeKeepsBuffer: an empty batch is handed straight
// back without consuming a free buffer or waking the consumer.
func TestRingEmptyExchangeKeepsBuffer(t *testing.T) {
	r := New(1)
	buf := r.Exchange(nil)
	// No Serve is running: a real delivery would block forever on the
	// 1-deep ring, so returning here proves the empty hand-off short-cut.
	got := r.Exchange(buf[:0])
	if cap(got) != cap(buf) {
		t.Fatal("empty exchange returned a different buffer")
	}
}

// recordSink copies every delivered batch out of its reused buffer.
type recordSink struct{ trace []emu.DynInstr }

func (s *recordSink) ConsumeTrace(batch []emu.DynInstr) { s.trace = append(s.trace, batch...) }

// replaySink checks the trace against a recorded reference.
type replaySink struct {
	want []emu.DynInstr
	pos  int
	err  bool
}

func (s *replaySink) ConsumeTrace(batch []emu.DynInstr) {
	for i := range batch {
		if s.pos >= len(s.want) || batch[i] != s.want[s.pos] {
			s.err = true
		}
		s.pos++
	}
}

// TestRingMatchesStepTrace: end to end through a real CPU — the
// ring-delivered trace is instruction-for-instruction the trace of the
// reference Step loop, across chunked runs that force partial batches,
// at ring sizes that force backpressure.
func TestRingMatchesStepTrace(t *testing.T) {
	w, err := workloads.ByName("PI")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build(workloads.Params{Scale: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := emu.New(prog, rng.New(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordSink{}
	ref.SetTraceSink(rec)
	for ref.Stats().Instructions < 200_000 && !ref.Halted() {
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ref.FlushTrace()
	want := rec.trace

	for _, size := range []int{1, 3} {
		cpu, err := emu.New(prog, rng.New(3), nil)
		if err != nil {
			t.Fatal(err)
		}
		r := New(size)
		sink := &replaySink{want: want}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Serve(sink)
		}()
		cpu.SetTraceRing(r)
		for budget := uint64(777); cpu.Stats().Instructions < 200_000 && !cpu.Halted(); budget += 1009 {
			target := min(cpu.Stats().Instructions+budget, 200_000)
			if err := cpu.Run(target); err != nil {
				t.Fatal(err)
			}
		}
		r.Stop()
		wg.Wait()
		if sink.err || sink.pos != len(want) {
			t.Fatalf("size %d: ring trace diverged from Step trace (%d/%d instructions)",
				size, sink.pos, len(want))
		}
	}
}

// TestRingFaultStillDrains: a faulting program flushes its partial batch
// before Run returns, and Stop hands it to the consumer.
func TestRingFaultStillDrains(t *testing.T) {
	b := progb.New("div0", false)
	b.MovInt(1, 1)
	b.MovInt(2, 0)
	b.Op3(isa.DIV, 3, 1, 2)
	b.Halt()
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := emu.New(prog, rng.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	r := New(2)
	sink := &orderSink{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.Serve(sink)
	}()
	cpu.SetTraceRing(r)
	if err := cpu.Run(0); err == nil {
		t.Fatal("division by zero did not fault")
	}
	r.Stop()
	wg.Wait()
	if len(sink.pcs) != 2 {
		t.Fatalf("consumer saw %d instructions before the fault, want 2", len(sink.pcs))
	}
}
