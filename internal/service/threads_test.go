package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	paremsp "repro"
)

// threadProbe substitutes every kernel seam of eng with one that reports
// the thread count it was handed on seen, then behaves as act says: nil
// labels for real, otherwise act decides the outcome.
func threadProbe(eng *Engine, seen chan<- int, act func(ctx context.Context) error) {
	eng.run = func(ctx context.Context, img *paremsp.Image, dst *paremsp.LabelMap, sc *paremsp.Scratch, opt paremsp.Options) (*paremsp.Result, error) {
		seen <- opt.Threads
		if err := act(ctx); err != nil {
			return nil, err
		}
		return paremsp.LabelIntoCtx(ctx, img, dst, sc, opt)
	}
	eng.runGray = func(ctx context.Context, img *paremsp.GrayImage, dst *paremsp.LabelMap, sc *paremsp.Scratch, opt paremsp.Options) (*paremsp.Result, error) {
		seen <- opt.Threads
		if err := act(ctx); err != nil {
			return nil, err
		}
		return paremsp.LabelGrayIntoCtx(ctx, img, dst, sc, opt)
	}
	eng.runVol = func(ctx context.Context, vol *paremsp.Volume, dst *paremsp.LabelVolumeMap, sc *paremsp.Scratch, opt paremsp.Options) (*paremsp.VolumeResult, error) {
		seen <- opt.Threads
		if err := act(ctx); err != nil {
			return nil, err
		}
		return paremsp.LabelVolumeIntoCtx(ctx, vol, dst, sc, opt)
	}
}

func proceed(context.Context) error { return nil }

// wantTokens fails unless every token the engine lent is back.
func wantTokens(t *testing.T, eng *Engine) {
	t.Helper()
	if got, want := eng.cpus.Load(), int64(runtime.GOMAXPROCS(0)); got != want {
		t.Fatalf("%d CPU tokens free after every labeling finished, want %d", got, want)
	}
}

// TestEngineThreadTokens pins the thread policy: an unpinned labeling
// takes every free CPU token, at least one, from a budget of GOMAXPROCS,
// and hands them back on every exit path; a pinned count runs as asked.
func TestEngineThreadTokens(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)

	t.Run("lone", func(t *testing.T) {
		eng := NewEngine(Config{Workers: 2})
		defer eng.Close()
		seen := make(chan int, 1)
		threadProbe(eng, seen, proceed)
		ctx := context.Background()
		res, err := eng.Label(ctx, testImage(t), paremsp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng.PutResult(res)
		if got := <-seen; got != procs {
			t.Fatalf("binary labeling ran on %d threads, want GOMAXPROCS = %d", got, procs)
		}
		gray := paremsp.NewGrayImage(5, 4)
		if res, err = eng.LabelGray(ctx, gray, paremsp.Options{Mode: paremsp.ModeGray}); err != nil {
			t.Fatal(err)
		}
		eng.PutResult(res)
		if got := <-seen; got != procs {
			t.Fatalf("gray labeling ran on %d threads, want %d", got, procs)
		}
		vres, err := eng.LabelVolume(ctx, paremsp.NewVolume(3, 3, 4), paremsp.Options{Mode: paremsp.ModeVolume})
		if err != nil {
			t.Fatal(err)
		}
		eng.PutVolumeResult(vres)
		if got := <-seen; got != procs {
			t.Fatalf("volume labeling ran on %d threads, want %d", got, procs)
		}
		wantTokens(t, eng)
	})

	t.Run("concurrent", func(t *testing.T) {
		// The first labeling holds every token while the second runs, so
		// the second finds none free and takes its one anyway.
		eng := NewEngine(Config{Workers: 2})
		defer eng.Close()
		seen := make(chan int, 2)
		release := make(chan struct{})
		unblock := sync.OnceFunc(func() { close(release) })
		defer unblock() // before Close, even when the test fails early
		var calls atomic.Int32
		threadProbe(eng, seen, func(context.Context) error {
			if calls.Add(1) == 1 {
				<-release
			}
			return nil
		})
		done := make(chan error, 2)
		label := func() {
			res, err := eng.Label(context.Background(), testImage(t), paremsp.Options{})
			eng.PutResult(res)
			done <- err
		}
		go label()
		if got := <-seen; got != procs {
			t.Fatalf("first labeling ran on %d threads, want %d", got, procs)
		}
		go label()
		if got := <-seen; got != 1 {
			t.Fatalf("second labeling ran on %d threads, want 1", got)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		unblock()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		wantTokens(t, eng)
	})

	t.Run("returned", func(t *testing.T) {
		// One worker: each labeling starts only after the previous one
		// finished, so a token that did not come back shows up at once.
		eng := NewEngine(Config{Workers: 1})
		defer eng.Close()
		seen := make(chan int, 1)
		boom := errors.New("kernel failed")
		cases := []struct {
			name string
			act  func(ctx context.Context) error
			want error
		}{
			{"success", proceed, nil},
			{"kernel-error", func(context.Context) error { return boom }, boom},
			{"cancel", func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }, context.Canceled},
			{"panic", func(context.Context) error { panic("kernel panicked") }, ErrWorkerPanic},
		}
		for _, c := range cases {
			threadProbe(eng, seen, c.act)
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() {
				res, err := eng.Label(ctx, testImage(t), paremsp.Options{})
				eng.PutResult(res)
				errc <- err
			}()
			if got := <-seen; got != procs {
				t.Fatalf("%s: labeling ran on %d threads, want %d", c.name, got, procs)
			}
			if c.want == context.Canceled {
				cancel()
			}
			if err := <-errc; !errors.Is(err, c.want) {
				t.Fatalf("%s: err = %v, want %v", c.name, err, c.want)
			}
			cancel()

			threadProbe(eng, seen, proceed)
			res, err := eng.Label(context.Background(), testImage(t), paremsp.Options{})
			if err != nil {
				t.Fatalf("after %s: %v", c.name, err)
			}
			eng.PutResult(res)
			if got := <-seen; got != procs {
				t.Fatalf("after %s: next labeling ran on %d threads, want %d", c.name, got, procs)
			}
		}
		wantTokens(t, eng)
	})

	t.Run("pinned-request", func(t *testing.T) {
		eng, srv := newTestServer(t, Config{Workers: 1}, HandlerConfig{})
		seen := make(chan int, 1)
		threadProbe(eng, seen, proceed)
		resp := post(t, srv.URL+"/v1/label?threads=3", ctPBM, ctJSON, pbmBody(t, testImage(t)))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if got := <-seen; got != 3 {
			t.Fatalf("?threads=3 reached the kernel as %d", got)
		}
		wantTokens(t, eng)
	})

	t.Run("pinned-config", func(t *testing.T) {
		eng := NewEngine(Config{Workers: 2, Threads: 1})
		defer eng.Close()
		seen := make(chan int, 1)
		threadProbe(eng, seen, proceed)
		for i := 0; i < 2; i++ {
			res, err := eng.Label(context.Background(), testImage(t), paremsp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			eng.PutResult(res)
			if got := <-seen; got != 1 {
				t.Fatalf("Config.Threads 1: labeling ran on %d threads", got)
			}
		}
		wantTokens(t, eng)
	})
}
