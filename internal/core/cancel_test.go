package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// ctxAlgs enumerates every context-aware entry point under one signature.
var ctxAlgs = []struct {
	name string
	run  func(ctx context.Context, img *binimg.Image, lm *binimg.LabelMap, sc *core.Scratch) (int, error)
}{
	{"CCLREMSP", func(ctx context.Context, img *binimg.Image, lm *binimg.LabelMap, sc *core.Scratch) (int, error) {
		n, _, err := core.CCLREMSP(ctx, img, lm, sc, core.Options{})
		return n, err
	}},
	{"AREMSP", withOptions(core.PAREMSP, 1)},
	{"BREMSP", withOptions(core.PBREMSP, 1)},
	{"PAREMSP", withOptions(core.PAREMSP, 3)},
	{"PBREMSP", withOptions(core.PBREMSP, 3)},
}

// withOptions binds a thread count to an Options-taking entry point.
func withOptions(run func(context.Context, *binimg.Image, *binimg.LabelMap, *core.Scratch, core.Options) (int, core.PhaseTimes, error), threads int) func(context.Context, *binimg.Image, *binimg.LabelMap, *core.Scratch) (int, error) {
	return func(ctx context.Context, img *binimg.Image, lm *binimg.LabelMap, sc *core.Scratch) (int, error) {
		n, _, err := run(ctx, img, lm, sc, core.Options{Threads: threads})
		return n, err
	}
}

// TestCtxBackgroundMatchesPlain: with a never-canceled context every Ctx
// entry point must agree with its plain counterpart — the polling is
// behavior-neutral when nothing fires.
func TestCtxBackgroundMatchesPlain(t *testing.T) {
	img := dataset.UniformNoise(257, 131, 0.5, 7)
	for _, alg := range ctxAlgs {
		t.Run(alg.name, func(t *testing.T) {
			lm, sc := &binimg.LabelMap{}, &core.Scratch{}
			n, err := alg.run(context.Background(), img, lm, sc)
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if verr := stats.Validate(img, lm, n, true); verr != nil {
				t.Fatalf("validate: %v", verr)
			}
		})
	}
}

// TestCtxPreCanceled: a context that is already dead stops every algorithm
// at its first poll point with the context's error and n == 0.
func TestCtxPreCanceled(t *testing.T) {
	// Tall enough that every path crosses at least one 64-row poll boundary.
	img := dataset.UniformNoise(128, 300, 0.5, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range ctxAlgs {
		t.Run(alg.name, func(t *testing.T) {
			lm, sc := &binimg.LabelMap{}, &core.Scratch{}
			n, err := alg.run(ctx, img, lm, sc)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if n != 0 {
				t.Fatalf("n = %d after cancellation, want 0", n)
			}
		})
	}
}

// TestCtxBuffersReusableAfterCancel: a canceled labeling leaves lm and sc in
// an undefined but reusable state — the very next call with a live context
// must produce a fully correct labeling from the same buffers.
func TestCtxBuffersReusableAfterCancel(t *testing.T) {
	poison := dataset.UniformNoise(300, 300, 0.6, 9)
	img := dataset.UniformNoise(150, 97, 0.5, 10)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range ctxAlgs {
		t.Run(alg.name, func(t *testing.T) {
			lm, sc := &binimg.LabelMap{}, &core.Scratch{}
			if _, err := alg.run(dead, poison, lm, sc); !errors.Is(err, context.Canceled) {
				t.Fatalf("poison run: err = %v, want context.Canceled", err)
			}
			n, err := alg.run(context.Background(), img, lm, sc)
			if err != nil {
				t.Fatalf("reuse run: %v", err)
			}
			if verr := stats.Validate(img, lm, n, true); verr != nil {
				t.Fatalf("reuse after cancel left stale state: %v", verr)
			}
		})
	}
}

// TestCtxDeadlinePropagates: the error reported is the context's own —
// DeadlineExceeded for an expired deadline, not a generic cancellation.
func TestCtxDeadlinePropagates(t *testing.T) {
	img := dataset.UniformNoise(128, 300, 0.5, 11)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	lm, sc := &binimg.LabelMap{}, &core.Scratch{}
	if _, _, err := core.CCLREMSP(ctx, img, lm, sc, core.Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// BenchmarkCancelCheck measures the cost of the cancellation polling on the
// sequential hot path: a never-canceled context, whose done channel is nil,
// versus a live cancelable one. The per-row check must stay in the noise
// (the perf gate compares the labeling numbers against the baseline report
// with this code compiled in).
func BenchmarkCancelCheck(b *testing.B) {
	img := dataset.UniformNoise(1024, 1024, 0.5, 12)
	lm, sc := &binimg.LabelMap{}, &core.Scratch{}
	b.Run("ctx-background", func(b *testing.B) {
		ctx := context.Background()
		b.SetBytes(int64(img.Width * img.Height))
		for i := 0; i < b.N; i++ {
			if _, _, err := core.CCLREMSP(ctx, img, lm, sc, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ctx-live-cancelable", func(b *testing.B) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		b.SetBytes(int64(img.Width * img.Height))
		for i := 0; i < b.N; i++ {
			if _, _, err := core.CCLREMSP(ctx, img, lm, sc, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
