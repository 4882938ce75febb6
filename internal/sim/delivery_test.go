package sim

import (
	"runtime"
	"testing"

	"repro/internal/sample"
)

// TestNestedAdvance: an Observe callback may itself step the session (a
// nested RunFor), and everything observable afterwards — the callback's
// own Snapshot, later observer samples and the closing Snapshot — must
// match a session driven by plain chunked RunFor calls to the same
// positions.
func TestNestedAdvance(t *testing.T) {
	opts := []Option{WithSeed(11), WithPBS(true), WithMaxInstrs(150_000)}

	// Nested: the first observer sample at 30k steps 5k further from
	// inside the callback.
	s, err := New("PI", opts...)
	if err != nil {
		t.Fatal(err)
	}
	var nestedObs, nested []Snapshot
	if err := s.Observe(30_000, func(snap Snapshot) {
		nestedObs = append(nestedObs, snap)
		if len(nestedObs) > 1 {
			return
		}
		if _, err := s.RunFor(5_000); err != nil {
			t.Error(err)
			return
		}
		nested = append(nested, s.Snapshot())
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	nested = append(nested, s.Snapshot())

	// Chunked: the same stops made from outside the session.
	c, err := New("PI", opts...)
	if err != nil {
		t.Fatal(err)
	}
	var chunkedObs, chunked []Snapshot
	if err := c.Observe(30_000, func(snap Snapshot) { chunkedObs = append(chunkedObs, snap) }); err != nil {
		t.Fatal(err)
	}
	for _, n := range []uint64{30_000, 5_000} {
		if _, err := c.RunFor(n); err != nil {
			t.Fatal(err)
		}
	}
	chunked = append(chunked, c.Snapshot())
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	chunked = append(chunked, c.Snapshot())

	if len(nestedObs) != 5 || len(chunkedObs) != len(nestedObs) {
		t.Fatalf("observer fired %d times nested, %d chunked; want 5 each", len(nestedObs), len(chunkedObs))
	}
	for i := range nestedObs {
		if nestedObs[i] != chunkedObs[i] {
			t.Errorf("observer sample %d diverged:\nnested  %+v\nchunked %+v", i, nestedObs[i], chunkedObs[i])
		}
	}
	for i := range nested {
		if nested[i] != chunked[i] {
			t.Errorf("snapshot %d diverged:\nnested  %+v\nchunked %+v", i, nested[i], chunked[i])
		}
	}
}

// TestSteadyStateAllocs pins the allocation freedom of a warm session:
// advancing it allocates nothing per batch or per instruction (the
// emulator reuses one trace buffer, and the retire path is
// allocation-free).
func TestSteadyStateAllocs(t *testing.T) {
	s, err := New("PI", WithSeed(5), WithPBS(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunFor(100_000); err != nil { // warm up pools and output buffers
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := s.RunFor(20_000); err != nil {
			t.Fatal(err)
		}
	})
	// AllocsPerRun averages in whole allocations, so a rare output-slice
	// growth still reads 0, while one allocation per trace batch (~78 per
	// run) would not.
	if avg > 0 {
		t.Fatalf("advance allocates %.1f times per 20k-instruction chunk", avg)
	}
}

// TestSessionStartsNoGoroutine: the timing model runs on the goroutine
// that advances the session, so neither an Observe callback nor a
// finished Run sees a goroutine the session started — for full-timing,
// sampled and resumed sessions alike. The count is compared with <=
// rather than == because a goroutine left over from an earlier test may
// still be exiting; none may appear.
func TestSessionStartsNoGoroutine(t *testing.T) {
	sc := sample.Config{Window: 10007, Period: 50021, Warmup: 20011}
	resumed := func() (*Session, error) {
		s, err := New("PI", WithSeed(3), WithPBS(true), WithMaxInstrs(200_000))
		if err != nil {
			return nil, err
		}
		if _, err := s.RunFor(60_000); err != nil {
			return nil, err
		}
		ck, err := s.Checkpoint()
		if err != nil {
			return nil, err
		}
		return Resume(ck)
	}
	for name, mk := range map[string]func() (*Session, error){
		"full": func() (*Session, error) {
			return New("PI", WithSeed(3), WithPBS(true), WithMaxInstrs(200_000))
		},
		"sampled": func() (*Session, error) {
			return New("PI", WithSeed(3), WithPBS(true), WithMaxInstrs(200_000), WithSampledTiming(sc))
		},
		"resumed": resumed,
	} {
		s, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		base := runtime.NumGoroutine()
		fired := 0
		if err := s.Observe(25_000, func(Snapshot) {
			fired++
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%s: %d goroutines inside an Observe callback, %d before Run", name, n, base)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fired == 0 {
			t.Errorf("%s: observer never fired", name)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%s: %d goroutines after Run, %d before", name, n, base)
		}
	}
}
