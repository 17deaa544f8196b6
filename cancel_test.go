package paremsp_test

import (
	"context"
	"errors"
	"testing"
	"time"

	paremsp "repro"
	"repro/internal/dataset"
)

// spiral is an n x n one-pixel-wide spiral path, one component whose
// labels the multi-pass baselines spread pass after pass.
func spiral(n int) *paremsp.Image {
	img := paremsp.NewImage(n, n)
	set := func(x, y int) { img.Pix[y*n+x] = 1 }
	for x0, y0, x1, y1 := 0, 0, n-1, n-1; x0 <= x1 && y0 <= y1; x0, y0, x1, y1 = x0+2, y0+2, x1-2, y1-2 {
		for x := x0; x <= x1; x++ {
			set(x, y0)
			set(x, y1)
		}
		for y := y0; y <= y1; y++ {
			set(x1, y)
			if y >= y0+2 {
				set(x0, y)
			}
		}
		if y0+2 < n {
			set(x0+1, y0+2)
		}
	}
	return img
}

// TestMultiPassBaselinesStopOnCancel: the multi-pass baselines, whose pass
// count grows with component length, poll their context every row block
// of every pass. Canceled 50 ms in, each returns context.Canceled within a
// second on an input it takes seconds to label uncanceled on a 2-vCPU host
// (multipass on a 1024x1024 serpentine about 5 s, suzuki on a 2560x2560
// spiral about 2 s).
func TestMultiPassBaselinesStopOnCancel(t *testing.T) {
	for _, tc := range []struct {
		alg paremsp.Algorithm
		img *paremsp.Image
	}{
		{paremsp.AlgMultiPass, dataset.Serpentine(1024, 1024, 1, 1)},
		{paremsp.AlgSuzuki, spiral(2560)},
	} {
		t.Run(string(tc.alg), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(50*time.Millisecond, cancel)
			start := time.Now()
			_, err := paremsp.LabelIntoCtx(ctx, tc.img, nil, nil, paremsp.Options{Algorithm: tc.alg})
			if d := time.Since(start); !errors.Is(err, context.Canceled) || d > time.Second {
				t.Fatalf("canceled after 50ms: err = %v after %v, want context.Canceled within 1s", err, d)
			}
		})
	}
}
