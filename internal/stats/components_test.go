package stats_test

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/binimg"
	"repro/internal/grayccl"
	"repro/internal/harness"
	"repro/internal/stats"
)

// perPixelComponents is the reference Components is checked against: a
// per-pixel loop that shares no code with the run fold. Every pixel updates
// its label's record, and a pixel whose left neighbor holds another label
// starts one of its label's runs.
func perPixelComponents(lm *binimg.LabelMap) []stats.Component {
	n := int(lm.Max())
	out := make([]stats.Component, n)
	for i := range out {
		out[i] = stats.Component{Label: stats.Label(i + 1), MinX: lm.Width, MinY: lm.Height, MaxX: -1, MaxY: -1}
	}
	sumX := make([]int64, n)
	sumY := make([]int64, n)
	for y := 0; y < lm.Height; y++ {
		row := y * lm.Width
		for x := 0; x < lm.Width; x++ {
			v := lm.L[row+x]
			if v == 0 {
				continue
			}
			c := &out[v-1]
			c.Area++
			if x < c.MinX {
				c.MinX = x
			}
			if x > c.MaxX {
				c.MaxX = x
			}
			if y < c.MinY {
				c.MinY = y
			}
			if y > c.MaxY {
				c.MaxY = y
			}
			sumX[v-1] += int64(x)
			sumY[v-1] += int64(y)
			if x == 0 || lm.L[row+x-1] != v {
				c.Runs++
			}
		}
	}
	for i := range out {
		if out[i].Area > 0 {
			out[i].CentroidX = float64(sumX[i]) / float64(out[i].Area)
			out[i].CentroidY = float64(sumY[i]) / float64(out[i].Area)
		}
	}
	return out
}

// checkComponents compares Components with the per-pixel reference field
// for field.
func checkComponents(t testing.TB, name string, lm *binimg.LabelMap) {
	t.Helper()
	got, want := stats.Components(lm), perPixelComponents(lm)
	if len(got) != len(want) {
		t.Fatalf("%s: %d components, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: component %d:\n got %+v\nwant %+v", name, i, got[i], want[i])
		}
	}
}

// withGaps renumbers label v as 3v-1, so labels 1, 3, 4, 6, 7, ... hold
// no pixel.
func withGaps(lm *binimg.LabelMap) *binimg.LabelMap {
	out := lm.Clone()
	for i, v := range out.L {
		if v != 0 {
			out.L[i] = 3*v - 1
		}
	}
	return out
}

// TestComponentsMatchPerPixelReference checks the run fold against the
// per-pixel reference on flood-fill maps of the harness corpus under both
// connectivities, on gray label maps (every pixel labeled, runs of equal
// value) and on both kinds with gaps in the numbering.
func TestComponentsMatchPerPixelReference(t *testing.T) {
	for _, ci := range harness.Corpus() {
		for _, conn := range []baseline.Connectivity{baseline.Conn8, baseline.Conn4} {
			lm, _ := baseline.FloodFill(ci.Image, conn)
			checkComponents(t, ci.Name, lm)
			checkComponents(t, ci.Name+"/gaps", withGaps(lm))
		}
	}
	rng := rand.New(rand.NewSource(11))
	for _, levels := range []int{2, 4, 256} {
		g := grayccl.New(97, 61)
		for i := range g.Pix {
			g.Pix[i] = uint8(rng.Intn(levels) * 255 / (levels - 1))
		}
		lm, _ := grayccl.FloodFill(g)
		checkComponents(t, "gray", lm)
		checkComponents(t, "gray/gaps", withGaps(lm))
	}
	ramp := grayccl.New(130, 70) // long diagonal runs
	for i := range ramp.Pix {
		ramp.Pix[i] = uint8((i%130 + i/130) / 9)
	}
	lm, _ := grayccl.FloodFill(ramp)
	checkComponents(t, "gray/ramp", lm)
}

// FuzzComponents checks the run fold against the per-pixel reference on
// arbitrary label maps: the first byte sets the width, and every later
// byte is one pixel's label, 0 to 31. The maps have gaps in the numbering,
// labels out of first-seen order and labels split over separate places.
func FuzzComponents(f *testing.F) {
	f.Add([]byte{4, 1, 1, 0, 2, 2, 0, 0, 5})
	f.Add([]byte{1, 3, 3, 3, 0, 3})
	f.Add([]byte{7, 31, 31, 31, 31, 31, 31, 31, 9, 0, 9, 0, 9, 0, 9})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		w := int(data[0])%16 + 1
		px := data[1:]
		lm := binimg.NewLabelMap(w, len(px)/w)
		for i := range lm.L {
			lm.L[i] = stats.Label(px[i] % 32)
		}
		checkComponents(t, "fuzz", lm)
	})
}
