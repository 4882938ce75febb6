package pipeline

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/workloads"
)

// traceRecorder is a trace sink that copies every batch out of the
// emulator's reused buffer.
type traceRecorder struct{ trace []emu.DynInstr }

func (r *traceRecorder) ConsumeTrace(batch []emu.DynInstr) { r.trace = append(r.trace, batch...) }

// recordTrace runs the PI workload functionally and captures its retired
// instruction trace for replay through the timing model.
func recordTrace(tb testing.TB, maxInstrs uint64) (*isa.Program, []emu.DynInstr) {
	tb.Helper()
	w, err := workloads.ByName("PI")
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := w.Build(workloads.DefaultParams(), true)
	if err != nil {
		tb.Fatal(err)
	}
	cpu, err := emu.New(prog, rng.New(1), nil)
	if err != nil {
		tb.Fatal(err)
	}
	rec := &traceRecorder{}
	cpu.SetTraceSink(rec)
	if err := cpu.Run(maxInstrs); err != nil {
		tb.Fatal(err)
	}
	return prog, rec.trace
}

// BenchmarkRetireBatch measures the steady-state retire path in
// isolation: a prerecorded trace is replayed through
// Pipeline.ConsumeTrace in emulator-sized batches, exercising fetch
// accounting, the predecoded dataflow walk, functional-unit backfill,
// caches and the TAGE-SC-L predictor — everything the trace-driven model
// does per retired instruction — with zero allocations per batch.
func BenchmarkRetireBatch(b *testing.B) {
	prog, trace := recordTrace(b, 1<<20)
	pipe, err := New(FourWide(), prog, branch.NewTAGESCL())
	if err != nil {
		b.Fatal(err)
	}
	const batch = 256
	b.ReportAllocs()
	b.ResetTimer()
	var fed uint64
	for i := 0; i < b.N; i++ {
		off := (i * batch) % (len(trace) - batch)
		pipe.ConsumeTrace(trace[off : off+batch])
		fed += batch
	}
	b.ReportMetric(float64(fed)/b.Elapsed().Seconds(), "instr/s")
}

// TestRetireBatchAllocationFree pins the zero-allocation property of the
// steady-state retire path under plain `go test`.
func TestRetireBatchAllocationFree(t *testing.T) {
	prog, trace := recordTrace(t, 200_000)
	pipe, err := New(FourWide(), prog, branch.NewTAGESCL())
	if err != nil {
		t.Fatal(err)
	}
	pipe.ConsumeTrace(trace) // warm up
	avg := testing.AllocsPerRun(50, func() {
		pipe.ConsumeTrace(trace[:4096])
	})
	if avg != 0 {
		t.Fatalf("retire path allocates: %v allocs per 4096-instruction batch", avg)
	}
}
