package asm

import (
	"maps"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/rng"
)

// fuzzMemCap bounds the data memory a fuzzed program may make the
// emulator allocate: larger (valid) programs are assembled and
// round-tripped but not executed, so one input cannot exhaust the
// fuzzing process.
const fuzzMemCap = 1 << 20

// FuzzAssemble feeds arbitrary text to the assembler. Assemble must
// return an error, never panic. A program it accepts must survive
// Format → Assemble with the same code (LDC entries compared by pooled
// value, since pool indices may be renumbered), memory size and data
// image, and must execute 2,000 instructions on a PBS machine with any
// fault coming back as an error.
func FuzzAssemble(f *testing.F) {
	for _, src := range []string{
		coinSource,
		".mem 256\n.word 64 -7\n.float 72 2.5\nmovi r1, 64\nld r2, r1, 0\nhalt",
		"start: movi r1, 5\n jmp start\n halt",
		"movi r1, 1\njmp +2\nmovi r1, 2\nhalt",
		"mov sp, lr\nhalt",
		"prob_cmp flt, r1, r2\nprob_jmp r3, NT\nhalt",
		".word 9223372036854775807 1\nhalt",
		"movi r1, 0\nmovi r2, 1\ndiv r3, r2, r1\nhalt",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Assemble("fuzz", src)
		if err != nil {
			return
		}
		text := Format(prog)
		back, err := Assemble("fuzz", text)
		if err != nil {
			t.Fatalf("formatted source does not assemble: %v\n%s", err, text)
		}
		if len(back.Code) != len(prog.Code) {
			t.Fatalf("code length changed: %d vs %d\n%s", len(back.Code), len(prog.Code), text)
		}
		for i, a := range prog.Code {
			b := back.Code[i]
			if a.Op == isa.LDC && b.Op == isa.LDC {
				if prog.Consts[a.Imm] != back.Consts[b.Imm] {
					t.Fatalf("instr %d: pooled constants differ", i)
				}
				continue
			}
			if a != b {
				t.Fatalf("instr %d: %v vs %v\n%s", i, a, b, text)
			}
		}
		if back.MemSize != prog.MemSize || !maps.Equal(back.DataInit, prog.DataInit) {
			t.Fatalf("data image changed: mem %d vs %d\n%s", back.MemSize, prog.MemSize, text)
		}

		if prog.MemSize > fuzzMemCap {
			return
		}
		unit, err := core.NewUnit(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := emu.New(prog, rng.New(1), unit)
		if err != nil {
			t.Fatalf("assembled program rejected by the emulator: %v", err)
		}
		_ = cpu.Run(2000) // faults are errors; only a panic or hang fails
	})
}
