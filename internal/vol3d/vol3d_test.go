package vol3d_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/vol3d"
)

// plabel labels vol at the given thread count into a fresh volume; one
// thread is the sequential labeler.
func plabel(vol *vol3d.Volume, threads int) (*vol3d.LabelVolume, int) {
	lv := &vol3d.LabelVolume{}
	n, _ := vol3d.LabelIntoCtx(context.Background(), vol, lv, nil, core.Options{Threads: threads})
	return lv, n
}

func label(vol *vol3d.Volume) (*vol3d.LabelVolume, int) { return plabel(vol, 1) }

func randomVolume(rng *rand.Rand, maxSide int) *vol3d.Volume {
	w, h, d := 1+rng.Intn(maxSide), 1+rng.Intn(maxSide), 1+rng.Intn(maxSide)
	vol := vol3d.NewVolume(w, h, d)
	density := rng.Float64()
	for i := range vol.Vox {
		if rng.Float64() < density {
			vol.Vox[i] = 1
		}
	}
	return vol
}

// equivalent checks that two label volumes encode the same partition.
func equivalent(a, b *vol3d.LabelVolume) bool {
	if len(a.L) != len(b.L) {
		return false
	}
	ab := map[int32]int32{}
	ba := map[int32]int32{}
	for i := range a.L {
		la, lb := a.L[i], b.L[i]
		if (la == 0) != (lb == 0) {
			return false
		}
		if la == 0 {
			continue
		}
		if m, ok := ab[la]; ok && m != lb {
			return false
		}
		if m, ok := ba[lb]; ok && m != la {
			return false
		}
		ab[la] = lb
		ba[lb] = la
	}
	return true
}

func TestLabelKnownVolumes(t *testing.T) {
	// Two 1x1x1 clusters at opposite corners of a 3x3x3 volume: distinct
	// under both connectivities.
	vol := vol3d.NewVolume(3, 3, 3)
	vol.Set(0, 0, 0, 1)
	vol.Set(2, 2, 2, 1)
	if _, n := label(vol); n != 2 {
		t.Fatalf("corners: n = %d, want 2", n)
	}
	// Diagonal touch: (0,0,0) and (1,1,1) are 26-adjacent but not 6-adjacent.
	diag := vol3d.NewVolume(2, 2, 2)
	diag.Set(0, 0, 0, 1)
	diag.Set(1, 1, 1, 1)
	if _, n := label(diag); n != 1 {
		t.Fatalf("26-diag: n = %d, want 1", n)
	}
	if _, n := vol3d.FloodFill(diag, false); n != 2 {
		t.Fatalf("6-conn diag: n = %d, want 2", n)
	}
}

func TestLabelFullAndEmpty(t *testing.T) {
	full := vol3d.NewVolume(4, 5, 6)
	for i := range full.Vox {
		full.Vox[i] = 1
	}
	lv, n := label(full)
	if n != 1 {
		t.Fatalf("full volume: n = %d, want 1", n)
	}
	for _, v := range lv.L {
		if v != 1 {
			t.Fatal("full volume not uniformly labeled")
		}
	}
	empty := vol3d.NewVolume(4, 5, 6)
	if _, n := label(empty); n != 0 {
		t.Fatalf("empty volume: n = %d, want 0", n)
	}
	if _, n := label(vol3d.NewVolume(0, 0, 0)); n != 0 {
		t.Fatal("0x0x0 volume must have 0 components")
	}
}

func TestPropertyLabelMatchesFloodFill(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vol := randomVolume(rng, 12)
		lv, n := label(vol)
		ref, nRef := vol3d.FloodFill(vol, true)
		return n == nRef && equivalent(lv, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPLabelMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vol := randomVolume(rng, 14)
		ref, nRef := label(vol)
		lv, n := plabel(vol, 1+rng.Intn(8))
		return n == nRef && equivalent(lv, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPLabelThreadSweepOddDepths(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, d := range []int{1, 2, 3, 5, 8, 9} {
		vol := vol3d.NewVolume(7, 6, d)
		for i := range vol.Vox {
			vol.Vox[i] = uint8(rng.Intn(2))
		}
		ref, nRef := vol3d.FloodFill(vol, true)
		for threads := 1; threads <= 10; threads++ {
			lv, n := plabel(vol, threads)
			if n != nRef {
				t.Fatalf("d=%d threads=%d: n=%d want %d", d, threads, n, nRef)
			}
			if !equivalent(lv, ref) {
				t.Fatalf("d=%d threads=%d: partitions differ", d, threads)
			}
		}
	}
}

func TestSixVsTwentySixConnectivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vol := randomVolume(rng, 10)
		_, n26 := vol3d.FloodFill(vol, true)
		_, n6 := vol3d.FloodFill(vol, false)
		return n6 >= n26
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestComponentSizes(t *testing.T) {
	vol := vol3d.NewVolume(4, 1, 1)
	vol.Set(0, 0, 0, 1)
	vol.Set(2, 0, 0, 1)
	vol.Set(3, 0, 0, 1)
	lv, n := label(vol)
	sizes := vol3d.ComponentSizes(lv, n)
	if n != 2 || sizes[0] != 1 || sizes[1] != 2 {
		t.Fatalf("n = %d, sizes = %v", n, sizes)
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != vol.ForegroundCount() {
		t.Fatalf("sizes sum %d, want %d", total, vol.ForegroundCount())
	}
}

func TestSpansZ(t *testing.T) {
	vol := vol3d.NewVolume(3, 3, 4)
	// A column through all z at (1,1), plus a loose voxel at z=0.
	for z := 0; z < 4; z++ {
		vol.Set(1, 1, z, 1)
	}
	vol.Set(0, 0, 0, 1) // 26-adjacent to the column? (0,0,0)-(1,1,0): yes!
	// Move it away so it stays separate.
	vol.Set(0, 0, 0, 0)
	lv, n := label(vol)
	if n != 1 {
		t.Fatalf("n = %d, want 1", n)
	}
	if !vol3d.SpansZ(lv, 1) {
		t.Fatal("column must span z")
	}
	flat := vol3d.NewVolume(3, 3, 4)
	flat.Set(1, 1, 0, 1)
	lvf, _ := label(flat)
	if vol3d.SpansZ(lvf, 1) {
		t.Fatal("single voxel cannot span z")
	}
}

func TestVolumeAccessors(t *testing.T) {
	vol := vol3d.NewVolume(3, 4, 5)
	vol.Set(2, 3, 4, 1)
	if vol.At(2, 3, 4) != 1 || vol.At(0, 0, 0) != 0 {
		t.Fatal("Set/At round trip failed")
	}
	if vol.ForegroundCount() != 1 {
		t.Fatalf("count = %d, want 1", vol.ForegroundCount())
	}
	lv, _ := label(vol)
	if lv.At(2, 3, 4) != 1 {
		t.Fatal("LabelVolume.At wrong")
	}
	for _, f := range []func(){
		func() { vol.At(3, 0, 0) },
		func() { vol.Set(0, 4, 0, 1) },
		func() { vol.Set(0, 0, 0, 2) },
		func() { vol3d.NewVolume(-1, 1, 1) },
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

func TestMaxLabels3DBound(t *testing.T) {
	// Isolated voxels at even coordinates realize the bound.
	vol := vol3d.NewVolume(5, 5, 5)
	count := 0
	for z := 0; z < 5; z += 2 {
		for y := 0; y < 5; y += 2 {
			for x := 0; x < 5; x += 2 {
				vol.Set(x, y, z, 1)
				count++
			}
		}
	}
	if want := vol3d.MaxLabels3D(5, 5, 5); want != 27 || count != want {
		t.Fatalf("MaxLabels3D = %d, isolated count = %d, want 27", want, count)
	}
	_, n := label(vol) // must not overflow the parent array
	if n != 27 {
		t.Fatalf("n = %d, want 27", n)
	}
}
