package core_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// checkAgainstReference validates lm structurally and against flood fill.
func checkAgainstReference(t *testing.T, img *binimg.Image, lm *binimg.LabelMap, n int) {
	t.Helper()
	if err := stats.Validate(img, lm, n, true); err != nil {
		t.Fatalf("validate: %v\nimage:\n%s\nlabels:\n%s", err, img, lm)
	}
	ref, nRef := baseline.FloodFill(img, baseline.Conn8)
	if n != nRef {
		t.Fatalf("components = %d, reference %d\nimage:\n%s", n, nRef, img)
	}
	if err := stats.Equivalent(lm, ref); err != nil {
		t.Fatalf("equivalence: %v\nimage:\n%s", err, img)
	}
}

var fixtures = map[string]string{
	"single pixel":    "#",
	"lone background": ".",
	"two diagonal":    "#.\n.#",
	"anti-diagonal":   ".#\n#.",
	"u-turn": `
		#.#
		#.#
		###`,
	"w-shape": `
		#.#.#
		#.#.#
		##.##`,
	"stairs": `
		#....
		.#...
		..#..
		...#.
		....#`,
	"frame": `
		#####
		#...#
		#.#.#
		#...#
		#####`,
	"comb": `
		#.#.#.#
		#.#.#.#
		#######`,
	"inverse comb": `
		#######
		#.#.#.#
		#.#.#.#`,
	"two rows":      "###\n###",
	"single row":    "##.##",
	"single column": "#\n#\n.\n#",
	"merge cascade": `
		#.#.#.#.
		........
		########`,
}

func TestCCLREMSPFixtures(t *testing.T) {
	for name, art := range fixtures {
		img := binimg.MustParse(art)
		lm, n := cclremsp(img)
		t.Run(name, func(t *testing.T) { checkAgainstReference(t, img, lm, n) })
	}
}

func TestAREMSPFixtures(t *testing.T) {
	for name, art := range fixtures {
		img := binimg.MustParse(art)
		lm, n := aremsp(img)
		t.Run(name, func(t *testing.T) { checkAgainstReference(t, img, lm, n) })
	}
}

func TestPAREMSPFixtures(t *testing.T) {
	for name, art := range fixtures {
		img := binimg.MustParse(art)
		for _, threads := range []int{1, 2, 3, 8} {
			lm, n := paremsp(img, threads)
			t.Run(name, func(t *testing.T) { checkAgainstReference(t, img, lm, n) })
		}
	}
}

func randomImage(rng *rand.Rand, maxW, maxH int) *binimg.Image {
	w, h := 1+rng.Intn(maxW), 1+rng.Intn(maxH)
	img := binimg.New(w, h)
	density := rng.Float64()
	for i := range img.Pix {
		if rng.Float64() < density {
			img.Pix[i] = 1
		}
	}
	return img
}

func TestPropertyCCLREMSPMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		img := randomImage(rng, 40, 40)
		lm, n := cclremsp(img)
		ref, nRef := baseline.FloodFill(img, baseline.Conn8)
		return n == nRef && stats.Equivalent(lm, ref) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAREMSPMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		img := randomImage(rng, 40, 40)
		lm, n := aremsp(img)
		ref, nRef := baseline.FloodFill(img, baseline.Conn8)
		return n == nRef && stats.Equivalent(lm, ref) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAREMSPEqualsCCLREMSPPartition: the paper's two sequential algorithms
// must compute identical partitions on everything.
func TestAREMSPEqualsCCLREMSPPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		img := randomImage(rng, 50, 50)
		a, na := aremsp(img)
		b, nb := cclremsp(img)
		return na == nb && stats.Equivalent(a, b) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPAREMSPMatchesSequential is the core parallel-correctness
// property: PAREMSP at any thread count computes AREMSP's partition.
func TestPropertyPAREMSPMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		img := randomImage(rng, 60, 60)
		ref, nRef := aremsp(img)
		threads := 1 + rng.Intn(16)
		lm, n := paremsp(img, threads)
		return n == nRef && stats.Equivalent(lm, ref) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPAREMSPAllThreadCountsOddAndEvenHeights(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, h := range []int{1, 2, 3, 4, 5, 7, 8, 16, 17, 31, 32, 33} {
		img := binimg.New(23, h)
		for i := range img.Pix {
			img.Pix[i] = uint8(rng.Intn(2))
		}
		ref, nRef := aremsp(img)
		for threads := 1; threads <= 26; threads++ {
			lm, n := paremsp(img, threads)
			if n != nRef {
				t.Fatalf("h=%d threads=%d: n=%d want %d", h, threads, n, nRef)
			}
			if err := stats.Equivalent(lm, ref); err != nil {
				t.Fatalf("h=%d threads=%d: %v", h, threads, err)
			}
		}
	}
}

func TestPAREMSPMergerVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	img := binimg.New(64, 64)
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(2))
	}
	ref, nRef := aremsp(img)
	for _, opt := range []core.Options{
		{Threads: 8, Merger: core.MergerLocked},
		{Threads: 8, Merger: core.MergerCAS},
		{Threads: 8, SequentialRelabel: true},
	} {
		lm := &binimg.LabelMap{}
		n, times, _ := core.PAREMSP(context.Background(), img, lm, nil, opt)
		if n != nRef {
			t.Fatalf("opt %+v: n=%d want %d", opt, n, nRef)
		}
		if err := stats.Equivalent(lm, ref); err != nil {
			t.Fatalf("opt %+v: %v", opt, err)
		}
		if times.Total() <= 0 {
			t.Fatalf("opt %+v: non-positive total time %v", opt, times)
		}
		if times.LocalMerge() != times.Scan+times.Merge {
			t.Fatalf("LocalMerge accounting wrong: %+v", times)
		}
	}
}

func TestPAREMSPDegenerate(t *testing.T) {
	for _, tc := range []struct {
		name string
		img  *binimg.Image
	}{
		{"empty 0x0", binimg.New(0, 0)},
		{"zero width", binimg.New(0, 5)},
		{"zero height", binimg.New(5, 0)},
		{"1x1 bg", binimg.New(1, 1)},
		{"1x1 fg", binimg.MustParse("#")},
		{"1xN", binimg.MustParse("#\n#\n.\n#\n#")},
		{"Nx1", binimg.MustParse("##..###")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lm, n := paremsp(tc.img, 4)
			if tc.img.Width == 0 || tc.img.Height == 0 {
				if n != 0 {
					t.Fatalf("n = %d, want 0", n)
				}
				return
			}
			checkAgainstReference(t, tc.img, lm, n)
		})
	}
}

// TestPAREMSPThreadsExceedingRows: more threads than row pairs must clamp.
func TestPAREMSPThreadsExceedingRows(t *testing.T) {
	img := binimg.MustParse("###\n#.#\n###")
	lm, n := paremsp(img, 64)
	checkAgainstReference(t, img, lm, n)
}

// TestGeneratedDatasets runs the full algorithm family on every dataset
// generator — integration coverage on realistic workloads.
func TestGeneratedDatasets(t *testing.T) {
	images := map[string]*binimg.Image{
		"noise50":   dataset.UniformNoise(97, 83, 0.5, 1),
		"noise90":   dataset.UniformNoise(64, 64, 0.9, 2),
		"noise10":   dataset.UniformNoise(64, 64, 0.1, 3),
		"checker1":  dataset.Checkerboard(50, 50, 1),
		"checker3":  dataset.Checkerboard(50, 50, 3),
		"stripesH":  dataset.Stripes(60, 40, 2, 3, false),
		"stripesV":  dataset.Stripes(60, 40, 2, 3, true),
		"blobs":     dataset.Blobs(80, 80, 12, 2, 9, 4),
		"spiral":    dataset.Serpentine(81, 81, 2, 3),
		"rings":     dataset.ConcentricRings(64, 64, 2, 3),
		"landcover": dataset.LandCover(96, 96, 24, 0.5, 5),
		"aerial":    dataset.Aerial(96, 96, 6),
		"texture":   dataset.Texture(72, 72, 7),
		"misc":      dataset.Misc(90, 90, 8),
		"text":      dataset.Text(120, 60, "GO", 2, 9),
	}
	for name, img := range images {
		img := img
		t.Run(name, func(t *testing.T) {
			ref, nRef := baseline.FloodFill(img, baseline.Conn8)
			for algName, f := range map[string]func(*binimg.Image) (*binimg.LabelMap, int){
				"CCLREMSP": cclremsp,
				"AREMSP":   aremsp,
				"PAREMSP4": func(im *binimg.Image) (*binimg.LabelMap, int) { return paremsp(im, 4) },
				"PAREMSP7": func(im *binimg.Image) (*binimg.LabelMap, int) { return paremsp(im, 7) },
			} {
				lm, n := f(img)
				if n != nRef {
					t.Fatalf("%s: n = %d, reference %d", algName, n, nRef)
				}
				if err := stats.Equivalent(lm, ref); err != nil {
					t.Fatalf("%s: %v", algName, err)
				}
				if err := stats.Validate(img, lm, n, true); err != nil {
					t.Fatalf("%s: %v", algName, err)
				}
			}
		})
	}
}

// TestRemSinkSharedOffsets pins the disjoint-range contract.
func TestRemSinkSharedOffsets(t *testing.T) {
	p := make([]core.Label, 32)
	a := core.NewRemSinkShared(p, 0)
	b := core.NewRemSinkShared(p, 10)
	if a.NewLabel() != 1 || a.NewLabel() != 2 {
		t.Fatal("offset-0 sink must hand out 1, 2, ...")
	}
	if b.NewLabel() != 11 || b.NewLabel() != 12 {
		t.Fatal("offset-10 sink must hand out 11, 12, ...")
	}
	if p[1] != 1 || p[11] != 11 {
		t.Fatal("NewLabel must initialize p[count] = count")
	}
	if p[3] != 0 || p[10] != 0 {
		t.Fatal("a sink must write only the slots it creates")
	}
}

func TestMergerKindString(t *testing.T) {
	if core.MergerLocked.String() != "locked" || core.MergerCAS.String() != "cas" {
		t.Fatal("MergerKind names wrong")
	}
	if core.MergerKind(9).String() == "" {
		t.Fatal("unknown MergerKind must still print")
	}
}

// The helpers below run one algorithm into caller buffers (…Into) or fresh
// ones under a never-canceled context. AREMSP and BREMSP are the one-thread
// PAREMSP and PBREMSP.

func cclremspInto(img *binimg.Image, lm *binimg.LabelMap, sc *core.Scratch) int {
	n, _, _ := core.CCLREMSP(context.Background(), img, lm, sc)
	return n
}

func paremspInto(threads int) func(*binimg.Image, *binimg.LabelMap, *core.Scratch) int {
	return func(img *binimg.Image, lm *binimg.LabelMap, sc *core.Scratch) int {
		n, _, _ := core.PAREMSP(context.Background(), img, lm, sc, core.Options{Threads: threads})
		return n
	}
}

func pbremspInto(threads int) func(*binimg.Image, *binimg.LabelMap, *core.Scratch) int {
	return func(img *binimg.Image, lm *binimg.LabelMap, sc *core.Scratch) int {
		n, _, _ := core.PBREMSP(context.Background(), img, lm, sc, core.Options{Threads: threads})
		return n
	}
}

func fresh(run func(*binimg.Image, *binimg.LabelMap, *core.Scratch) int) func(*binimg.Image) (*binimg.LabelMap, int) {
	return func(img *binimg.Image) (*binimg.LabelMap, int) {
		lm := &binimg.LabelMap{}
		return lm, run(img, lm, nil)
	}
}

var (
	aremspInto = paremspInto(1)
	bremspInto = pbremspInto(1)
	cclremsp   = fresh(cclremspInto)
	aremsp     = fresh(aremspInto)
	bremsp     = fresh(bremspInto)
)

func paremsp(img *binimg.Image, threads int) (*binimg.LabelMap, int) {
	return fresh(paremspInto(threads))(img)
}

func pbremsp(img *binimg.Image, threads int) (*binimg.LabelMap, int) {
	return fresh(pbremspInto(threads))(img)
}
