package baseline

import (
	"repro/internal/binimg"
	"repro/internal/poll"
)

// Suzuki is the table-accelerated multi-pass algorithm of
// Suzuki-Horiba-Sugie (CVIU 2003), the related-work baseline the paper
// contrasts with two-pass methods: alternating forward and backward raster
// passes propagate labels, but a one-dimensional connection table T keeps
// the transitive closure of discovered equivalences between passes, which
// bounds the pass count by component geometry far more tightly than the
// plain repeated-pass algorithm (MultiPass). Labels stabilize when a full
// forward+backward sweep changes nothing.
//
// Each pass computes, per foreground pixel, the minimum of T-resolved labels
// over the scan mask (the four already-visited neighbors in scan direction
// plus the pixel itself), assigns it, and lowers T entries for every mask
// label accordingly. Results and polling follow MultiPass: done is polled
// every poll.Rows rows of every pass.
func Suzuki(img *binimg.Image, conn Connectivity, done <-chan struct{}) (*binimg.LabelMap, int, bool) {
	w, h := img.Width, img.Height
	lm := binimg.NewLabelMap(w, h)
	pix := img.Pix
	lab := lm.L

	// Initial forward pass: provisional labels with table recording.
	t := make([]Label, 1, w*h/2+2)
	var count Label

	resolve := func(l Label) Label {
		for t[l] != l {
			l = t[l]
		}
		return l
	}

	// maskMin returns the minimum resolved label over the already-visited
	// neighbors of (x, y) in the given scan direction, or 0 if none.
	maskMin := func(x, y int, forward bool) Label {
		var best Label
		consider := func(nx, ny int) {
			if nx < 0 || nx >= w || ny < 0 || ny >= h {
				return
			}
			l := lab[ny*w+nx]
			if l == 0 {
				return
			}
			l = resolve(l)
			if best == 0 || l < best {
				best = l
			}
		}
		if forward {
			consider(x-1, y)
			consider(x, y-1)
			if conn == Conn8 {
				consider(x-1, y-1)
				consider(x+1, y-1)
			}
		} else {
			consider(x+1, y)
			consider(x, y+1)
			if conn == Conn8 {
				consider(x+1, y+1)
				consider(x-1, y+1)
			}
		}
		return best
	}

	// lower records that every labeled mask neighbor of (x, y) (and the
	// pixel itself) is equivalent to m, by lowering table entries.
	lower := func(x, y int, m Label, forward bool) {
		update := func(nx, ny int) {
			if nx < 0 || nx >= w || ny < 0 || ny >= h {
				return
			}
			l := lab[ny*w+nx]
			if l == 0 {
				return
			}
			r := resolve(l)
			if r != m {
				t[r] = m
			}
		}
		if forward {
			update(x-1, y)
			update(x, y-1)
			if conn == Conn8 {
				update(x-1, y-1)
				update(x+1, y-1)
			}
		} else {
			update(x+1, y)
			update(x, y+1)
			if conn == Conn8 {
				update(x+1, y+1)
				update(x-1, y+1)
			}
		}
	}

	for y := 0; y < h; y++ {
		if y%poll.Rows == 0 && poll.Stopped(done) {
			return nil, 0, false
		}
		for x := 0; x < w; x++ {
			i := y*w + x
			if pix[i] == 0 {
				continue
			}
			if m := maskMin(x, y, true); m != 0 {
				lower(x, y, m, true)
				lab[i] = m
			} else {
				count++
				t = append(t, count)
				lab[i] = count
			}
		}
	}

	// Alternating passes until stable.
	for {
		changed := false
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
				cur := resolve(lab[i])
				m := maskMin(x, y, false)
				if m != 0 && m < cur {
					lower(x, y, m, false)
					t[cur] = m
					cur = m
					changed = true
				}
				if lab[i] != cur {
					lab[i] = cur
					changed = true
				}
			}
		}
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
				cur := resolve(lab[i])
				m := maskMin(x, y, true)
				if m != 0 && m < cur {
					lower(x, y, m, true)
					t[cur] = m
					cur = m
					changed = true
				}
				if lab[i] != cur {
					lab[i] = cur
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	// Consecutive renumbering (first-seen in raster order of resolved
	// labels, matching the other algorithms' postcondition).
	final := make([]Label, count+1)
	var k Label
	for i, v := range lab {
		if v == 0 {
			continue
		}
		r := resolve(v)
		if final[r] == 0 {
			k++
			final[r] = k
		}
		lab[i] = final[r]
	}
	return lm, int(k), true
}
