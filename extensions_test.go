package paremsp_test

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	paremsp "repro"
)

func TestLabelGrayFacade(t *testing.T) {
	img := paremsp.NewGrayImage(8, 6)
	for i := range img.Pix {
		img.Pix[i] = uint8((i % 8) / 4 * 100) // left half 0, right half 100
	}
	lm, n := paremsp.LabelGray(img)
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
	lmPar, nPar := paremsp.LabelGrayParallel(img, 3)
	if nPar != 2 {
		t.Fatalf("parallel n = %d, want 2", nPar)
	}
	if err := paremsp.Equivalent(lm, lmPar); err != nil {
		t.Fatal(err)
	}
	if _, n := paremsp.LabelGrayDelta(img, 100); n != 1 {
		t.Fatal("delta 100 must join both halves")
	}
}

func TestTraceContoursFacade(t *testing.T) {
	img, _ := paremsp.ParseImage(`
		.###.
		.###.
		.....
		#....`)
	res, err := paremsp.Label(img, paremsp.Options{Algorithm: paremsp.AlgAREMSP})
	if err != nil {
		t.Fatal(err)
	}
	cs := paremsp.TraceContours(res.Labels, res.NumComponents)
	if len(cs) != 2 {
		t.Fatalf("traced %d contours, want 2", len(cs))
	}
	if p := paremsp.ContourPerimeter(cs[0].Points); p <= 0 {
		t.Fatalf("rectangle perimeter = %v", p)
	}
	if len(cs[1].Points) != 1 {
		t.Fatalf("dot contour has %d points, want 1", len(cs[1].Points))
	}
}

func TestRelabelByAreaFacade(t *testing.T) {
	img, _ := paremsp.ParseImage("#...\n..##")
	res, err := paremsp.Label(img, paremsp.Options{Algorithm: paremsp.AlgFloodFill})
	if err != nil {
		t.Fatal(err)
	}
	paremsp.RelabelByArea(res.Labels, res.NumComponents)
	comps := paremsp.ComponentsOf(res.Labels)
	if comps[0].Area != 2 || comps[1].Area != 1 {
		t.Fatalf("areas after relabel: %d, %d", comps[0].Area, comps[1].Area)
	}
}

func TestLabelVolumeFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	vol := paremsp.NewVolume(9, 8, 7)
	for i := range vol.Vox {
		vol.Vox[i] = uint8(rng.Intn(2))
	}
	lv, n := paremsp.LabelVolume(vol)
	lvPar, nPar := paremsp.LabelVolumeParallel(vol, 4)
	if n != nPar {
		t.Fatalf("sequential %d vs parallel %d components", n, nPar)
	}
	// Pointwise zero/non-zero agreement plus bijection.
	ab := map[int32]int32{}
	for i := range lv.L {
		a, b := lv.L[i], lvPar.L[i]
		if (a == 0) != (b == 0) {
			t.Fatal("foreground mismatch")
		}
		if a == 0 {
			continue
		}
		if m, ok := ab[a]; ok && m != b {
			t.Fatal("label maps not bijective")
		}
		ab[a] = b
	}
	if lv.At(0, 0, 0) != lv.L[0] {
		t.Fatal("LabelVolumeMap.At inconsistent")
	}
}

// TestExtParallelThreadsZeroIsGOMAXPROCS: threads = 0 asks the gray and
// volume labelers for all CPUs, as Options.Threads documents — not for one
// goroutine per row pair (or plane pair). A tall image and a deep volume
// would otherwise start thousands of goroutines; a sampler tracks the peak
// while both run.
func TestExtParallelThreadsZeroIsGOMAXPROCS(t *testing.T) {
	img := randGray(512, 4000, 21)
	vol := randVolume(32, 32, 2000, 22)
	base := runtime.NumGoroutine()
	var peak atomic.Int64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			runtime.Gosched()
		}
	}()
	paremsp.LabelGrayParallel(img, 0)
	paremsp.LabelVolumeParallel(vol, 0)
	close(stop)
	<-sampled
	// The sampler, one goroutine per chunk — counted up to three times,
	// since a phase's goroutines may not have exited when the next phase
	// starts its own — and some slack.
	limit := int64(base + 1 + 3*runtime.GOMAXPROCS(0) + 8)
	if p := peak.Load(); p > limit {
		t.Fatalf("peak %d goroutines with threads = 0, want <= %d (GOMAXPROCS %d)", p, limit, runtime.GOMAXPROCS(0))
	}
}
