package baseline

import (
	"repro/internal/binimg"
	"repro/internal/poll"
)

// MultiPass is the repeated-pass ("multi-pass") labeling algorithm the
// paper's related-work section describes: every foreground pixel starts with
// a unique label, then alternating forward and backward raster passes
// propagate the minimum label over each pixel's full neighborhood until a
// pass changes nothing. Worst-case pass count is proportional to component
// geometry (spirals are pathological), which is exactly why two-pass
// algorithms exist; it serves as the slow outside-the-family baseline.
// Returns the label map with consecutive final labels 1..n, n, and true; it
// polls done every poll.Rows rows of every pass and returns false once done
// has closed.
func MultiPass(img *binimg.Image, conn Connectivity, done <-chan struct{}) (*binimg.LabelMap, int, bool) {
	w, h := img.Width, img.Height
	lm := binimg.NewLabelMap(w, h)
	pix := img.Pix
	lab := lm.L

	for i, v := range pix {
		if v != 0 {
			lab[i] = Label(i + 1)
		}
	}

	// minNeighbor returns the smallest non-zero label in the full
	// neighborhood of (x, y) including the pixel itself.
	minNeighbor := func(x, y int) Label {
		best := lab[y*w+x]
		consider := func(nx, ny int) {
			if nx < 0 || nx >= w || ny < 0 || ny >= h {
				return
			}
			if l := lab[ny*w+nx]; l != 0 && l < best {
				best = l
			}
		}
		consider(x-1, y)
		consider(x+1, y)
		consider(x, y-1)
		consider(x, y+1)
		if conn == Conn8 {
			consider(x-1, y-1)
			consider(x+1, y-1)
			consider(x-1, y+1)
			consider(x+1, y+1)
		}
		return best
	}

	for {
		changed := false
		// Forward pass.
		for y := 0; y < h; y++ {
			if y%poll.Rows == 0 && poll.Stopped(done) {
				return nil, 0, false
			}
			for x := 0; x < w; x++ {
				i := y*w + x
				if pix[i] == 0 {
					continue
				}
				if m := minNeighbor(x, y); m < lab[i] {
					lab[i] = m
					changed = true
				}
			}
		}
		// Backward pass.
		for y := h - 1; y >= 0; y-- {
			if (h-1-y)%poll.Rows == 0 && poll.Stopped(done) {
				return nil, 0, false
			}
			for x := w - 1; x >= 0; x-- {
				i := y*w + x
				if pix[i] == 0 {
					continue
				}
				if m := minNeighbor(x, y); m < lab[i] {
					lab[i] = m
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	// Renumber consecutively in raster order of first appearance.
	final := make(map[Label]Label)
	var k Label
	for i, v := range lab {
		if v == 0 {
			continue
		}
		f, ok := final[v]
		if !ok {
			k++
			f = k
			final[v] = f
		}
		lab[i] = f
	}
	return lm, int(k), true
}
