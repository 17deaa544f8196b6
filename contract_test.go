package paremsp_test

import (
	"context"
	"math/rand"
	"testing"

	paremsp "repro"
)

// TestEveryREMSPEntryPointReturnsPhases: every REMSP entry point returns
// the phase times its kernel measured — scan and relabel nonzero, relabel
// zero under CountOnly where CountOnly applies — and a baseline, which has
// no four-phase structure, returns none.
func TestEveryREMSPEntryPointReturnsPhases(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(23))
	img := paremsp.NewImage(96, 80)
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(2))
	}
	bm := paremsp.NewBitmap(img.Width, img.Height)
	bm.FromImage(img)
	gray, vol := randGray(96, 80, 24), randVolume(24, 20, 16, 25)
	phases := func(res *paremsp.Result, err error) (paremsp.PhaseTimes, error) {
		if err != nil {
			return paremsp.PhaseTimes{}, err
		}
		return res.Phases, nil
	}
	type entry struct {
		name      string
		countOnly bool // whether Options.CountOnly applies
		label     func(opt paremsp.Options) (paremsp.PhaseTimes, error)
	}
	var entries []entry
	for _, alg := range []paremsp.Algorithm{paremsp.AlgPAREMSP, paremsp.AlgAREMSP, paremsp.AlgCCLREMSP, paremsp.AlgBREMSP, paremsp.AlgPBREMSP} {
		entries = append(entries, entry{"LabelIntoCtx/" + string(alg), true, func(opt paremsp.Options) (paremsp.PhaseTimes, error) {
			opt.Algorithm = alg
			return phases(paremsp.LabelIntoCtx(ctx, img, nil, nil, opt))
		}})
	}
	for _, alg := range []paremsp.Algorithm{paremsp.AlgPAREMSP, paremsp.AlgBREMSP, paremsp.AlgPBREMSP} {
		entries = append(entries, entry{"LabelBitmapIntoCtx/" + string(alg), true, func(opt paremsp.Options) (paremsp.PhaseTimes, error) {
			opt.Algorithm = alg
			return phases(paremsp.LabelBitmapIntoCtx(ctx, bm, nil, nil, opt))
		}})
	}
	for _, mode := range []paremsp.Mode{paremsp.ModeGray, paremsp.ModeGrayDelta} {
		entries = append(entries, entry{"LabelGrayIntoCtx/" + string(mode), false, func(opt paremsp.Options) (paremsp.PhaseTimes, error) {
			opt.Mode, opt.Delta = mode, 40
			return phases(paremsp.LabelGrayIntoCtx(ctx, gray, nil, nil, opt))
		}})
	}
	entries = append(entries, entry{"LabelVolumeIntoCtx", false, func(opt paremsp.Options) (paremsp.PhaseTimes, error) {
		res, err := paremsp.LabelVolumeIntoCtx(ctx, vol, nil, nil, opt)
		if err != nil {
			return paremsp.PhaseTimes{}, err
		}
		return res.Phases, nil
	}})
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			ph, err := e.label(paremsp.Options{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			if ph.Scan <= 0 || ph.Relabel <= 0 {
				t.Fatalf("phases %+v, want scan and relabel > 0", ph)
			}
			if !e.countOnly {
				return
			}
			if ph, err = e.label(paremsp.Options{Threads: 2, CountOnly: true}); err != nil {
				t.Fatal(err)
			}
			if ph.Scan <= 0 || ph.Relabel != 0 {
				t.Fatalf("count-only phases %+v, want scan > 0 and relabel 0", ph)
			}
		})
	}
	if ph, err := phases(paremsp.LabelIntoCtx(ctx, img, nil, nil, paremsp.Options{Algorithm: paremsp.AlgFloodFill})); err != nil || ph != (paremsp.PhaseTimes{}) {
		t.Fatalf("floodfill phases %+v (err %v), want none", ph, err)
	}
}

// TestOptionsSplits pins which labelings split their raster among threads:
// PAREMSP (the default) and PBREMSP, in every mode but gray-delta.
func TestOptionsSplits(t *testing.T) {
	splitting := map[paremsp.Algorithm]bool{"": true, paremsp.AlgPAREMSP: true, paremsp.AlgPBREMSP: true}
	for _, alg := range append([]paremsp.Algorithm{""}, paremsp.Algorithms()...) {
		for _, mode := range append([]paremsp.Mode{""}, paremsp.Modes()...) {
			want := splitting[alg] && mode != paremsp.ModeGrayDelta
			if got := (paremsp.Options{Algorithm: alg, Mode: mode}).Splits(); got != want {
				t.Errorf("Options{Algorithm: %q, Mode: %q}.Splits() = %v, want %v", alg, mode, got, want)
			}
		}
	}
}
