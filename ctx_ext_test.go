package paremsp_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	paremsp "repro"
)

// randGray builds a deterministic pseudo-random gray image tall enough that
// every gray labeler crosses at least one poll boundary (polls are every
// 128 raster rows).
func randGray(w, h int, seed int64) *paremsp.GrayImage {
	rng := rand.New(rand.NewSource(seed))
	img := paremsp.NewGrayImage(w, h)
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(4) * 50)
	}
	return img
}

// randVolume builds a deterministic pseudo-random voxel volume with enough
// total rows to cross the labelers' poll boundaries.
func randVolume(w, h, d int, seed int64) *paremsp.Volume {
	rng := rand.New(rand.NewSource(seed))
	vol := paremsp.NewVolume(w, h, d)
	for i := range vol.Vox {
		if rng.Intn(2) == 1 {
			vol.Vox[i] = 1
		}
	}
	return vol
}

// TestLabelGrayIntoCtxMatchesPlain: with a live context the Ctx entry point
// must agree with the plain facades for every gray mode and both
// sequential and parallel algorithms.
func TestLabelGrayIntoCtxMatchesPlain(t *testing.T) {
	img := randGray(131, 300, 1)
	plain, n := paremsp.LabelGray(img)

	for _, tc := range []struct {
		name string
		opt  paremsp.Options
	}{
		{"gray-parallel", paremsp.Options{Mode: paremsp.ModeGray, Threads: 3}},
		{"gray-sequential", paremsp.Options{Mode: paremsp.ModeGray, Algorithm: paremsp.AlgAREMSP}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := paremsp.LabelGrayIntoCtx(context.Background(), img, &paremsp.LabelMap{}, &paremsp.Scratch{}, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.NumComponents != n {
				t.Fatalf("NumComponents = %d, want %d", res.NumComponents, n)
			}
			if err := paremsp.Equivalent(plain, res.Labels); err != nil {
				t.Fatal(err)
			}
		})
	}

	t.Run("gray-delta", func(t *testing.T) {
		dplain, dn := paremsp.LabelGrayDelta(img, 50)
		res, err := paremsp.LabelGrayIntoCtx(context.Background(), img, &paremsp.LabelMap{}, &paremsp.Scratch{},
			paremsp.Options{Mode: paremsp.ModeGrayDelta, Delta: 50})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumComponents != dn {
			t.Fatalf("delta NumComponents = %d, want %d", res.NumComponents, dn)
		}
		if err := paremsp.Equivalent(dplain, res.Labels); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLabelVolumeIntoCtxMatchesPlain: ditto for the 3-D labeler, both
// slab-parallel and sequential.
func TestLabelVolumeIntoCtxMatchesPlain(t *testing.T) {
	vol := randVolume(17, 13, 40, 2)
	_, n := paremsp.LabelVolume(vol)
	for _, tc := range []struct {
		name string
		opt  paremsp.Options
	}{
		{"parallel", paremsp.Options{Mode: paremsp.ModeVolume, Threads: 3}},
		{"sequential", paremsp.Options{Mode: paremsp.ModeVolume, Algorithm: paremsp.AlgAREMSP}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := paremsp.LabelVolumeIntoCtx(context.Background(), vol, &paremsp.LabelVolumeMap{}, &paremsp.Scratch{}, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.NumComponents != n {
				t.Fatalf("NumComponents = %d, want %d", res.NumComponents, n)
			}
			sizes := paremsp.VolumeComponentSizes(res.Labels, res.NumComponents)
			total := 0
			for _, s := range sizes {
				total += s
			}
			if total != vol.ForegroundCount() {
				t.Fatalf("component sizes sum to %d, want %d foreground voxels", total, vol.ForegroundCount())
			}
		})
	}
}

// TestExtCtxPreCanceled: a dead context stops every new-mode entry point at
// its first poll with the context's error.
func TestExtCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	img := randGray(128, 300, 3)
	for _, opt := range []paremsp.Options{
		{Mode: paremsp.ModeGray},
		{Mode: paremsp.ModeGray, Algorithm: paremsp.AlgAREMSP},
		{Mode: paremsp.ModeGrayDelta, Delta: 10},
	} {
		if _, err := paremsp.LabelGrayIntoCtx(ctx, img, &paremsp.LabelMap{}, &paremsp.Scratch{}, opt); !errors.Is(err, context.Canceled) {
			t.Fatalf("gray %+v: err = %v, want context.Canceled", opt, err)
		}
	}

	vol := randVolume(16, 16, 40, 4)
	for _, opt := range []paremsp.Options{
		{Mode: paremsp.ModeVolume},
		{Mode: paremsp.ModeVolume, Algorithm: paremsp.AlgAREMSP},
	} {
		if _, err := paremsp.LabelVolumeIntoCtx(ctx, vol, &paremsp.LabelVolumeMap{}, &paremsp.Scratch{}, opt); !errors.Is(err, context.Canceled) {
			t.Fatalf("volume %+v: err = %v, want context.Canceled", opt, err)
		}
	}

	bin, _ := paremsp.ParseImage("###\n###")
	res, err := paremsp.Label(bin, paremsp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := paremsp.TraceContoursCtx(ctx, res.Labels, res.NumComponents); !errors.Is(err, context.Canceled) {
		t.Fatalf("contours: err = %v, want context.Canceled", err)
	}
}

// TestExtCtxBuffersReusableAfterCancel: a canceled gray or volume labeling
// leaves its destination and Scratch reusable — the next call with a live
// context must be fully correct from the same buffers.
func TestExtCtxBuffersReusableAfterCancel(t *testing.T) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	t.Run("gray", func(t *testing.T) {
		poison, img := randGray(200, 280, 5), randGray(131, 300, 6)
		lm, sc := &paremsp.LabelMap{}, &paremsp.Scratch{}
		if _, err := paremsp.LabelGrayIntoCtx(dead, poison, lm, sc, paremsp.Options{Mode: paremsp.ModeGray}); !errors.Is(err, context.Canceled) {
			t.Fatalf("poison run: err = %v", err)
		}
		plain, n := paremsp.LabelGray(img)
		res, err := paremsp.LabelGrayIntoCtx(context.Background(), img, lm, sc, paremsp.Options{Mode: paremsp.ModeGray})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumComponents != n {
			t.Fatalf("reuse NumComponents = %d, want %d", res.NumComponents, n)
		}
		if err := paremsp.Equivalent(plain, res.Labels); err != nil {
			t.Fatalf("reuse after cancel left stale state: %v", err)
		}
	})

	t.Run("volume", func(t *testing.T) {
		poison, vol := randVolume(20, 20, 30, 7), randVolume(17, 13, 40, 8)
		lv, sc := &paremsp.LabelVolumeMap{}, &paremsp.Scratch{}
		if _, err := paremsp.LabelVolumeIntoCtx(dead, poison, lv, sc, paremsp.Options{Mode: paremsp.ModeVolume}); !errors.Is(err, context.Canceled) {
			t.Fatalf("poison run: err = %v", err)
		}
		_, n := paremsp.LabelVolume(vol)
		res, err := paremsp.LabelVolumeIntoCtx(context.Background(), vol, lv, sc, paremsp.Options{Mode: paremsp.ModeVolume})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumComponents != n {
			t.Fatalf("reuse NumComponents = %d, want %d", res.NumComponents, n)
		}
	})
}

// TestModeValidation: every entry point rejects a mode that is not its
// own, and connectivity is validated against the mode's neighborhood.
func TestModeValidation(t *testing.T) {
	bin, _ := paremsp.ParseImage("#.\n.#")
	if _, err := paremsp.Label(bin, paremsp.Options{Mode: paremsp.ModeGray}); err == nil {
		t.Fatal("Label accepted mode gray")
	}
	img := randGray(8, 8, 9)
	if _, err := paremsp.LabelGrayIntoCtx(context.Background(), img, &paremsp.LabelMap{}, &paremsp.Scratch{},
		paremsp.Options{Mode: paremsp.ModeVolume}); err == nil {
		t.Fatal("LabelGrayIntoCtx accepted mode volume")
	}
	if _, err := paremsp.LabelGrayIntoCtx(context.Background(), img, &paremsp.LabelMap{}, &paremsp.Scratch{},
		paremsp.Options{Mode: paremsp.ModeGray, Connectivity: 4}); err == nil {
		t.Fatal("LabelGrayIntoCtx accepted conn 4")
	}
	vol := randVolume(4, 4, 4, 10)
	if _, err := paremsp.LabelVolumeIntoCtx(context.Background(), vol, &paremsp.LabelVolumeMap{}, &paremsp.Scratch{},
		paremsp.Options{Mode: paremsp.ModeGray}); err == nil {
		t.Fatal("LabelVolumeIntoCtx accepted mode gray")
	}
	if _, err := paremsp.LabelVolumeIntoCtx(context.Background(), vol, &paremsp.LabelVolumeMap{}, &paremsp.Scratch{},
		paremsp.Options{Mode: paremsp.ModeVolume, Connectivity: 6}); err == nil {
		t.Fatal("LabelVolumeIntoCtx accepted conn 6")
	}
}

// TestJobKeyModeDistinct: one body, five workloads, five distinct job IDs —
// and equal parameters rebuild equal IDs (the dedup contract).
func TestJobKeyModeDistinct(t *testing.T) {
	body := []byte("P5\n4 4\n255\n0123456789abcdef")
	keys := map[string]string{}
	for name, key := range map[string]string{
		"labels":     paremsp.JobKeyMode(paremsp.JobLabels, paremsp.ModeBinary, "", 0, 0.5, 0, body),
		"stats":      paremsp.JobKeyMode(paremsp.JobStats, paremsp.ModeBinary, "", 0, 0.5, 0, body),
		"contours":   paremsp.JobKeyMode(paremsp.JobContours, paremsp.ModeBinary, "", 0, 0.5, 0, body),
		"gray":       paremsp.JobKeyMode(paremsp.JobGray, paremsp.ModeGray, "", 0, 0.5, 0, body),
		"gray-delta": paremsp.JobKeyMode(paremsp.JobGray, paremsp.ModeGrayDelta, "", 0, 0.5, 12, body),
		"volume":     paremsp.JobKeyMode(paremsp.JobVolume, paremsp.ModeVolume, "", 0, 0.5, 0, body),
	} {
		for prev, k := range keys {
			if k == key {
				t.Fatalf("%s and %s share job key %s", name, prev, k)
			}
		}
		keys[name] = key
	}
	// Same parameters → same ID (client-side precomputation must agree).
	if paremsp.JobKeyMode(paremsp.JobGray, paremsp.ModeGray, "", 0, 0.5, 0, body) != keys["gray"] {
		t.Fatal("gray job key is not deterministic")
	}
	// A different delta is a different labeling → a different ID.
	if paremsp.JobKeyMode(paremsp.JobGray, paremsp.ModeGrayDelta, "", 0, 0.5, 13, body) == keys["gray-delta"] {
		t.Fatal("delta value does not contribute to the gray-delta job key")
	}
	// Gray keys ignore level (gray modes never binarize).
	if paremsp.JobKeyMode(paremsp.JobGray, paremsp.ModeGray, "", 0, 0.25, 0, body) != keys["gray"] {
		t.Fatal("level leaked into the gray job key")
	}
	// The labels key must match the pre-redesign JobKey so existing client
	// IDs stay valid.
	if paremsp.JobKey(paremsp.JobLabels, "", 0, 0.5, body) != keys["labels"] {
		t.Fatal("JobKeyMode(labels) diverged from JobKey")
	}
}

// TestJobKeyModeDigests pins JobKeyMode, and with it every job ID the
// server assigns (including IDs already stored on disk), over kind × mode ×
// algorithm × connectivity × level × delta × a P4 or P5 body. Each row
// hashes the keys of one kind/mode pair over the rest of the grid.
func TestJobKeyModeDigests(t *testing.T) {
	bodies := [][]byte{[]byte("P4\n4 2\n\xd0\x50"), []byte("P5\n4 2\n255\n\x00\x00\x80\x80\x00\xff\xff\x80")}
	kinds := []paremsp.JobKind{paremsp.JobLabels, paremsp.JobStats, paremsp.JobContours, paremsp.JobGray, paremsp.JobVolume}
	modes := []paremsp.Mode{"", paremsp.ModeBinary, paremsp.ModeGray, paremsp.ModeGrayDelta, paremsp.ModeVolume}
	want := map[string]string{ // golden: a changed digest changes stored job IDs
		"labels/":             "8f1b11b2d0a909ee",
		"labels/binary":       "8f1b11b2d0a909ee",
		"labels/gray":         "8f1b11b2d0a909ee",
		"labels/gray-delta":   "8f1b11b2d0a909ee",
		"labels/volume":       "8f1b11b2d0a909ee",
		"stats/":              "d75f84dc9bf149c9",
		"stats/binary":        "d75f84dc9bf149c9",
		"stats/gray":          "d75f84dc9bf149c9",
		"stats/gray-delta":    "d75f84dc9bf149c9",
		"stats/volume":        "d75f84dc9bf149c9",
		"contours/":           "40408f5a527ee4dd",
		"contours/binary":     "40408f5a527ee4dd",
		"contours/gray":       "40408f5a527ee4dd",
		"contours/gray-delta": "40408f5a527ee4dd",
		"contours/volume":     "40408f5a527ee4dd",
		"gray/":               "b99e03798fd6bbf5",
		"gray/binary":         "b99e03798fd6bbf5",
		"gray/gray":           "b99e03798fd6bbf5",
		"gray/gray-delta":     "1a401d61e889b4ee",
		"gray/volume":         "b99e03798fd6bbf5",
		"volume/":             "4ad20fc9cdcdfe30",
		"volume/binary":       "4ad20fc9cdcdfe30",
		"volume/gray":         "4ad20fc9cdcdfe30",
		"volume/gray-delta":   "4ad20fc9cdcdfe30",
		"volume/volume":       "4ad20fc9cdcdfe30",
	}
	for _, kind := range kinds {
		for _, mode := range modes {
			h := sha256.New()
			for _, alg := range []paremsp.Algorithm{"", paremsp.AlgPAREMSP, paremsp.AlgBREMSP} {
				for _, conn := range []int{0, 4, 8, 26} {
					for _, level := range []float64{0, 0.5} {
						for _, delta := range []uint8{0, 12} {
							for _, body := range bodies {
								fmt.Fprintln(h, paremsp.JobKeyMode(kind, mode, alg, conn, level, delta, body))
							}
						}
					}
				}
			}
			row := string(kind) + "/" + string(mode)
			if got := hex.EncodeToString(h.Sum(nil))[:16]; got != want[row] {
				t.Errorf("JobKeyMode digest for %s = %s, want %s", row, got, want[row])
			}
		}
	}
}
