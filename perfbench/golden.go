package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strings"

	"repro/internal/sim"
)

// Golden is the expected outcome of one simulated configuration: the
// counters a speed change must leave untouched, plus a hash of the
// program's output stream.
type Golden struct {
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	Mispredicts  uint64 `json:"mispredicts"`
	L1IMisses    uint64 `json:"l1i_misses"`
	L1DMisses    uint64 `json:"l1d_misses"`
	L2Misses     uint64 `json:"l2_misses"`
	OutputHash   uint64 `json:"output_hash"`
}

// Expect is a stored golden, plus the full-timing IPC a sampled
// configuration's estimate is judged against (zero for full runs).
type Expect struct {
	Golden
	FullIPC float64 `json:"full_ipc,omitempty"`
}

// Goldens maps workload name -> configuration key -> expectation.
type Goldens map[string]map[string]Expect

//go:embed goldens.json
var goldensJSON []byte

func loadGoldens() (Goldens, error) {
	var g Goldens
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return nil, fmt.Errorf("goldens.json: %w", err)
	}
	return g, nil
}

func (g Goldens) save(path string) error {
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// goldenOf extracts the checked counters of a simulation result.
func goldenOf(r *sim.Result) Golden {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range r.Outputs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return Golden{
		Instructions: r.Emu.Instructions,
		Cycles:       r.Timing.Cycles,
		Mispredicts:  r.Timing.Mispredicts,
		L1IMisses:    r.Timing.L1IMisses,
		L1DMisses:    r.Timing.L1DMisses,
		L2Misses:     r.Timing.L2Misses,
		OutputHash:   h.Sum64(),
	}
}

// compare names every counter of got that differs from want, or
// returns nil when all match.
func (got Golden) compare(want Golden) error {
	fields := []struct {
		name      string
		got, want uint64
	}{
		{"instructions", got.Instructions, want.Instructions},
		{"cycles", got.Cycles, want.Cycles},
		{"mispredicts", got.Mispredicts, want.Mispredicts},
		{"l1i_misses", got.L1IMisses, want.L1IMisses},
		{"l1d_misses", got.L1DMisses, want.L1DMisses},
		{"l2_misses", got.L2Misses, want.L2Misses},
		{"output_hash", got.OutputHash, want.OutputHash},
	}
	var diffs []string
	for _, f := range fields {
		if f.got != f.want {
			diffs = append(diffs, fmt.Sprintf("%s %d, want %d", f.name, f.got, f.want))
		}
	}
	if diffs != nil {
		return fmt.Errorf("%s", strings.Join(diffs, "; "))
	}
	return nil
}

// configKey names a sim.Config in the goldens file.
func configKey(c sim.Config) string {
	width := 4
	if c.Core != nil {
		width = c.Core.Width
	}
	key := fmt.Sprintf("%s/%s/pbs=%t/w%d/seed%d/scale%d", c.Workload, c.Predictor, c.PBS, width, c.Seed, c.Params.Scale)
	if c.Sample != nil {
		key += fmt.Sprintf("/sample%d-%d-%d", c.Sample.Window, c.Sample.Period, c.Sample.Warmup)
	}
	if c.MaxInstrs > 0 {
		key += fmt.Sprintf("/max%d", c.MaxInstrs)
	}
	return key
}
