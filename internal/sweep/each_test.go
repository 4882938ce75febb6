package sweep

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEachRunsEveryIndexOnce pins the success contract: every index in
// [0, n) runs exactly once, at any parallelism — including none to run
// and more workers than indices.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, parallel int }{
		{0, 4}, {1, 1}, {7, 1}, {7, 3}, {5, 64}, {9, 0},
	} {
		counts := make([]atomic.Int32, tc.n)
		err := Each(context.Background(), tc.n, tc.parallel, func(_ context.Context, i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Errorf("n=%d parallel=%d: %v", tc.n, tc.parallel, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("n=%d parallel=%d: index %d ran %d times, want 1", tc.n, tc.parallel, i, c)
			}
		}
	}
}

// TestEachFirstErrorCancels pins the abort contract: the first error
// cancels the ctx an in-flight call sees, no call starts after it, and
// it is the error Each returns.
func TestEachFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var (
		mu      sync.Mutex
		started []int
	)
	inFlight := make(chan struct{})
	err := Each(context.Background(), 10, 2, func(ctx context.Context, i int) error {
		mu.Lock()
		started = append(started, i)
		mu.Unlock()
		switch i {
		case 0:
			// In flight when index 1 fails: must see the cancellation.
			close(inFlight)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(10 * time.Second):
				t.Error("in-flight call never saw the first error's cancellation")
				return nil
			}
		case 1:
			<-inFlight
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("Each returned %v, want the first error %v", err, boom)
	}
	if len(started) != 2 {
		t.Errorf("calls started %v, want only the two dispatched before the error", started)
	}
}

// TestEachCancelledParent pins that a cancelled parent stops the pool
// and surfaces as context.Canceled.
func TestEachCancelledParent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := Each(ctx, 100, 4, func(context.Context, int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Each under a cancelled parent returned %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d calls ran under a cancelled parent", n)
	}
}
