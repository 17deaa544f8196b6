package grayccl_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/grayccl"
	"repro/internal/stats"
)

// plabel labels img at the given thread count into a fresh map; one thread
// is the sequential labeler.
func plabel(img *grayccl.Image, threads int) (*binimg.LabelMap, int) {
	lm := &binimg.LabelMap{}
	n, _, _ := grayccl.LabelIntoCtx(context.Background(), img, lm, nil, core.Options{Threads: threads})
	return lm, n
}

func label(img *grayccl.Image) (*binimg.LabelMap, int) { return plabel(img, 1) }

func labelDelta(img *grayccl.Image, delta uint8) (*binimg.LabelMap, int) {
	lm := &binimg.LabelMap{}
	n, _, _ := grayccl.LabelDeltaIntoCtx(context.Background(), img, lm, nil, delta)
	return lm, n
}

func randomGray(rng *rand.Rand, maxW, maxH, levels int) *grayccl.Image {
	w, h := 1+rng.Intn(maxW), 1+rng.Intn(maxH)
	img := grayccl.New(w, h)
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(levels))
	}
	return img
}

func TestLabelUniformImage(t *testing.T) {
	img := grayccl.New(7, 5)
	for i := range img.Pix {
		img.Pix[i] = 200
	}
	lm, n := label(img)
	if n != 1 {
		t.Fatalf("uniform image: n = %d, want 1", n)
	}
	for _, v := range lm.L {
		if v != 1 {
			t.Fatal("uniform image not uniformly labeled")
		}
	}
}

func TestLabelEveryPixelDistinct(t *testing.T) {
	// 4 gray levels in a pattern where no two 8-adjacent pixels are equal.
	img := grayccl.New(6, 6)
	for y := 0; y < 6; y++ {
		for x := 0; x < 6; x++ {
			img.Pix[y*6+x] = uint8((x%2)*2 + y%2*1 + (x%2)*(y%2))
		}
	}
	// Build explicitly: values (x%2, y%2) -> 0,1,2,3 distinct in every 2x2.
	for y := 0; y < 6; y++ {
		for x := 0; x < 6; x++ {
			img.Pix[y*6+x] = uint8(2*(y%2) + x%2)
		}
	}
	lm, n := label(img)
	ref, nRef := grayccl.FloodFill(img)
	if n != nRef {
		t.Fatalf("n = %d, reference %d", n, nRef)
	}
	if err := stats.Equivalent(lm, ref); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLabelMatchesFloodFill(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		img := randomGray(rng, 30, 30, 2+rng.Intn(5))
		lm, n := label(img)
		ref, nRef := grayccl.FloodFill(img)
		return n == nRef && stats.Equivalent(lm, ref) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPLabelMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		img := randomGray(rng, 40, 40, 2+rng.Intn(6))
		ref, nRef := label(img)
		lm, n := plabel(img, 1+rng.Intn(12))
		return n == nRef && stats.Equivalent(lm, ref) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPLabelThreadSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, h := range []int{1, 2, 3, 16, 17} {
		img := grayccl.New(19, h)
		for i := range img.Pix {
			img.Pix[i] = uint8(rng.Intn(3))
		}
		ref, nRef := grayccl.FloodFill(img)
		for threads := 1; threads <= 12; threads++ {
			lm, n := plabel(img, threads)
			if n != nRef {
				t.Fatalf("h=%d threads=%d: n=%d want %d", h, threads, n, nRef)
			}
			if err := stats.Equivalent(lm, ref); err != nil {
				t.Fatalf("h=%d threads=%d: %v", h, threads, err)
			}
		}
	}
}

// TestBinaryConsistency: on a two-level image, gray components = binary
// foreground components + binary background components (background regions
// are components too under gray semantics).
func TestBinaryConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 1+rng.Intn(30), 1+rng.Intn(30)
		bin := binimg.New(w, h)
		gray := grayccl.New(w, h)
		for i := range bin.Pix {
			v := uint8(rng.Intn(2))
			bin.Pix[i] = v
			gray.Pix[i] = v * 255
		}
		_, nGray := label(gray)
		_, nFg := baseline.FloodFill(bin, baseline.Conn8)
		inv := bin.Clone()
		inv.Invert()
		_, nBg := baseline.FloodFill(inv, baseline.Conn8)
		return nGray == nFg+nBg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLabelDeltaZeroEqualsExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		img := randomGray(rng, 25, 25, 4)
		a, na := labelDelta(img, 0)
		b, nb := label(img)
		return na == nb && stats.Equivalent(a, b) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestLabelDeltaMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		img := randomGray(rng, 25, 25, 256)
		prev := -1
		for _, delta := range []uint8{0, 8, 32, 128, 255} {
			_, n := labelDelta(img, delta)
			if prev != -1 && n > prev {
				return false // widening tolerance can only merge components
			}
			prev = n
		}
		return prev == 1 // delta 255 joins everything
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLabelDeltaRampTransitiveClosure(t *testing.T) {
	// A ramp 0,10,20,...,90: delta 10 connects all of it even though the
	// endpoints differ by 90.
	img := grayccl.New(10, 1)
	for x := 0; x < 10; x++ {
		img.Pix[x] = uint8(10 * x)
	}
	if _, n := labelDelta(img, 10); n != 1 {
		t.Fatalf("ramp with delta 10: n = %d, want 1", n)
	}
	if _, n := labelDelta(img, 9); n != 10 {
		t.Fatalf("ramp with delta 9: n = %d, want 10", n)
	}
}

func TestDegenerateImages(t *testing.T) {
	empty := grayccl.New(0, 0)
	if _, n := label(empty); n != 0 {
		t.Fatal("0x0 image must have 0 components")
	}
	if _, n := plabel(empty, 4); n != 0 {
		t.Fatal("0x0 parallel must have 0 components")
	}
	if _, n := labelDelta(empty, 5); n != 0 {
		t.Fatal("0x0 delta must have 0 components")
	}
	one := grayccl.New(1, 1)
	if _, n := label(one); n != 1 {
		t.Fatal("1x1 image must have 1 component")
	}
}

func TestImageAccessors(t *testing.T) {
	img := grayccl.New(3, 2)
	img.Set(2, 1, 77)
	if img.At(2, 1) != 77 {
		t.Fatal("Set/At round trip failed")
	}
	for _, f := range []func(){
		func() { img.At(3, 0) },
		func() { img.Set(0, 2, 1) },
		func() { grayccl.New(-1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestLabelsAreConsecutive pins the 1..n postcondition for all three
// labelers.
func TestLabelsAreConsecutive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	img := randomGray(rng, 40, 40, 5)
	for name, run := range map[string]func() (*binimg.LabelMap, int){
		"Label":      func() (*binimg.LabelMap, int) { return label(img) },
		"PLabel":     func() (*binimg.LabelMap, int) { return plabel(img, 7) },
		"LabelDelta": func() (*binimg.LabelMap, int) { return labelDelta(img, 1) },
	} {
		lm, n := run()
		seen := make(map[binimg.Label]bool)
		for _, v := range lm.L {
			if v < 1 || int(v) > n {
				t.Fatalf("%s: label %d outside 1..%d", name, v, n)
			}
			seen[v] = true
		}
		if len(seen) != n {
			t.Fatalf("%s: %d distinct labels, claimed %d", name, len(seen), n)
		}
	}
}
