// Package grayccl implements the grayscale extension the paper claims for
// its algorithms ("our algorithm can be easily extended to gray scale
// images"): connected component labeling over gray-level rasters, where two
// adjacent pixels (8-connectivity) belong to the same component iff they
// hold the same gray value. Every pixel is labeled — there is no background.
//
// The implementation is the paper's machinery with the foreground test
// generalized to value equality: the two-rows-at-a-time scan (Alg. 6) plus
// REM's union-find with splicing, run as a core.Kernel — chunked scans over
// disjoint label ranges, concurrent seam merges (Alg. 7/8), flatten,
// relabel — with one chunk as the sequential case. Equality is
// transitive, which is what lets the pair-scan's case analysis skip
// neighbors the way the binary algorithm does; the tolerance-based variant
// (LabelDeltaIntoCtx) loses transitivity and therefore uses the
// exhaustive-neighbor scan, as a kernel that is never split.
//
// A canceled labeling leaves its label map and Scratch in an undefined but
// reusable state; callers must discard the result.
package grayccl

import (
	"context"
	"fmt"

	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/poll"
	"repro/internal/unionfind"
)

// Image is a grayscale raster: one byte per pixel, row-major.
type Image struct {
	Width  int
	Height int
	Pix    []uint8
}

// New returns a zeroed grayscale image.
func New(width, height int) *Image {
	if width < 0 || height < 0 {
		panic(fmt.Sprintf("grayccl: negative dimensions %dx%d", width, height))
	}
	return &Image{Width: width, Height: height, Pix: make([]uint8, width*height)}
}

// At returns the pixel at (x, y); it panics out of range.
func (im *Image) At(x, y int) uint8 {
	if x < 0 || x >= im.Width || y < 0 || y >= im.Height {
		panic(fmt.Sprintf("grayccl: At(%d,%d) out of range %dx%d", x, y, im.Width, im.Height))
	}
	return im.Pix[y*im.Width+x]
}

// Set writes the pixel at (x, y); it panics out of range.
func (im *Image) Set(x, y int, v uint8) {
	if x < 0 || x >= im.Width || y < 0 || y >= im.Height {
		panic(fmt.Sprintf("grayccl: Set(%d,%d) out of range %dx%d", x, y, im.Width, im.Height))
	}
	im.Pix[y*im.Width+x] = v
}

// Reset reshapes im to width×height, reusing the pixel buffer when large
// enough (the binimg.Image contract); contents are zeroed.
func (im *Image) Reset(width, height int) {
	if width < 0 || height < 0 {
		panic(fmt.Sprintf("grayccl: negative dimensions %dx%d", width, height))
	}
	n := width * height
	if cap(im.Pix) < n {
		im.Pix = make([]uint8, n)
	} else {
		im.Pix = im.Pix[:n]
		clear(im.Pix)
	}
	im.Width, im.Height = width, height
}

// LabelIntoCtx computes the gray-level connected components of img into lm
// (reshaped with Reset; every pixel labeled, labels consecutive 1..n) and
// returns n. Row-pair chunks are scanned concurrently with disjoint label
// ranges — gray labels have no independent-set bound, since every pixel may
// open a component, so each row pair budgets 2*w labels — and seam rows are
// merged with opt.Merger. One thread is the sequential labeler. The
// equivalence buffers come from sc (nil allocates fresh ones); the scan and
// relabel poll ctx every 64 rows.
func LabelIntoCtx(ctx context.Context, img *Image, lm *binimg.LabelMap, sc *core.Scratch, opt core.Options) (int, error) {
	w := img.Width
	lm.Reset(w, img.Height)
	k := core.Kernel{
		Rows: img.Height, Unit: 2, Stride: 2 * w,
		Scan: func(c *core.Chunk) (binimg.Label, bool) {
			return grayPairRows(img, lm, c.P, c.Offset, c.Lo, c.Hi, c.Done)
		},
		Seam:    func(c *core.Chunk, merge func(x, y binimg.Label)) { mergeGrayBoundary(img, lm, merge, c.Lo) },
		Relabel: func(c *core.Chunk) bool { return core.RelabelFlat(c, lm.L[c.Lo*w:c.Hi*w], w) },
	}
	n, _, err := k.Run(ctx, sc, opt)
	return n, err
}

// grayPairRows is the pair-row scan of Alg. 6 with the foreground predicate
// generalized to gray-value equality. It labels rows [rowStart, rowEnd),
// drawing labels from offset+1 upward, polling done every poll.Rows row
// pairs. Returns the last label used and whether it ran to completion.
func grayPairRows(img *Image, lm *binimg.LabelMap, p []binimg.Label, offset binimg.Label, rowStart, rowEnd int, done <-chan struct{}) (binimg.Label, bool) {
	w := img.Width
	pix := img.Pix
	lab := lm.L
	count := offset
	newLabel := func() binimg.Label {
		count++
		p[count] = count
		return count
	}
	for r := rowStart; r < rowEnd; r += 2 {
		if (r-rowStart)%(2*poll.Rows) == 0 && poll.Stopped(done) {
			return count, false
		}
		row := r * w
		up := row - w
		down := row + w
		hasUp := r > rowStart
		hasG := r+1 < rowEnd
		for x := 0; x < w; x++ {
			e := pix[row+x]
			// Neighbor "present" now means "equal gray value".
			var a, b, c, d bool
			if hasUp {
				b = pix[up+x] == e
				if x > 0 {
					a = pix[up+x-1] == e
				}
				if x+1 < w {
					c = pix[up+x+1] == e
				}
			}
			var f bool
			if x > 0 {
				d = pix[row+x-1] == e
				if hasG {
					f = pix[down+x-1] == e
				}
			}
			var le binimg.Label
			if !d {
				switch {
				case b:
					le = lab[up+x]
					if f {
						le = unionfind.MergeRemSP(p, le, lab[down+x-1])
					}
				case f:
					le = lab[down+x-1]
					if a {
						le = unionfind.MergeRemSP(p, le, lab[up+x-1])
					}
					if c {
						le = unionfind.MergeRemSP(p, le, lab[up+x+1])
					}
				case a:
					le = lab[up+x-1]
					if c {
						le = unionfind.MergeRemSP(p, le, lab[up+x+1])
					}
				case c:
					le = lab[up+x+1]
				default:
					le = newLabel()
				}
			} else {
				le = lab[row+x-1]
				if !b && c {
					le = unionfind.MergeRemSP(p, le, lab[up+x+1])
				}
			}
			lab[row+x] = le

			if hasG {
				g := pix[down+x]
				if g == e {
					lab[down+x] = le
					continue
				}
				// g differs from e: its visited same-value neighbors are d
				// and f only.
				var lg binimg.Label
				dg := x > 0 && pix[row+x-1] == g
				fg := x > 0 && pix[down+x-1] == g
				switch {
				case dg && fg:
					lg = unionfind.MergeRemSP(p, lab[row+x-1], lab[down+x-1])
				case dg:
					lg = lab[row+x-1]
				case fg:
					lg = lab[down+x-1]
				default:
					lg = newLabel()
				}
				lab[down+x] = lg
			}
		}
	}
	return count, true
}

// mergeGrayBoundary unites each pixel of a chunk-start row with its
// equal-valued neighbors in the row above.
func mergeGrayBoundary(img *Image, lm *binimg.LabelMap, merge func(x, y binimg.Label), row int) {
	w := img.Width
	pix := img.Pix
	lab := lm.L
	base := row * w
	up := base - w
	for x := 0; x < w; x++ {
		e := pix[base+x]
		if pix[up+x] == e {
			merge(lab[base+x], lab[up+x])
			continue
		}
		if x > 0 && pix[up+x-1] == e {
			merge(lab[base+x], lab[up+x-1])
		}
		if x+1 < w && pix[up+x+1] == e {
			merge(lab[base+x], lab[up+x+1])
		}
	}
}

// LabelDeltaIntoCtx labels components under the tolerance predicate
// |v(p) - v(q)| <= delta for adjacent pixels (8-connectivity), taking the
// transitive closure: a gradual ramp is one component even though its ends
// differ by more than delta. Tolerance is not transitive, so the exhaustive
// Rosenfeld scan is used (every visited neighbor examined and merged), as a
// kernel that is never split. Buffers and cancellation follow LabelIntoCtx.
func LabelDeltaIntoCtx(ctx context.Context, img *Image, lm *binimg.LabelMap, sc *core.Scratch, delta uint8) (int, error) {
	w, h := img.Width, img.Height
	lm.Reset(w, h)
	k := core.Kernel{
		Rows: h, Unit: h, Stride: w * h,
		Scan:    func(c *core.Chunk) (binimg.Label, bool) { return deltaScan(img, lm, c.P, delta, c.Done) },
		Relabel: func(c *core.Chunk) bool { return core.RelabelFlat(c, lm.L, w) },
	}
	n, _, err := k.Run(ctx, sc, core.Options{})
	return n, err
}

// deltaScan is LabelDeltaIntoCtx's exhaustive Rosenfeld scan, polling done
// every poll.Rows rows. Returns the last label used and whether it
// completed.
func deltaScan(img *Image, lm *binimg.LabelMap, p []binimg.Label, delta uint8, done <-chan struct{}) (binimg.Label, bool) {
	w, h := img.Width, img.Height
	pix := img.Pix
	lab := lm.L
	var count binimg.Label
	near := func(a, b uint8) bool {
		if a > b {
			a, b = b, a
		}
		return b-a <= delta
	}
	for y := 0; y < h; y++ {
		if y%poll.Rows == 0 && poll.Stopped(done) {
			return count, false
		}
		row := y * w
		up := row - w
		for x := 0; x < w; x++ {
			e := pix[row+x]
			var le binimg.Label
			take := func(idx int) {
				if !near(pix[idx], e) {
					return
				}
				if le == 0 {
					le = lab[idx]
				} else if lab[idx] != le {
					le = unionfind.MergeRemSP(p, le, lab[idx])
				}
			}
			if x > 0 {
				take(row + x - 1)
			}
			if y > 0 {
				if x > 0 {
					take(up + x - 1)
				}
				take(up + x)
				if x+1 < w {
					take(up + x + 1)
				}
			}
			if le == 0 {
				count++
				p[count] = count
				le = count
			}
			lab[row+x] = le
		}
	}
	return count, true
}

// FloodFill is the gray-level reference labeler (exact equality,
// 8-connectivity), used to verify LabelIntoCtx.
func FloodFill(img *Image) (*binimg.LabelMap, int) {
	w, h := img.Width, img.Height
	lm := binimg.NewLabelMap(w, h)
	lab := lm.L
	pix := img.Pix
	var next binimg.Label
	stack := make([]int32, 0, 1024)
	for s := range pix {
		if lab[s] != 0 {
			continue
		}
		next++
		lab[s] = next
		v := pix[s]
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			i := int(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			x, y := i%w, i/w
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nx, ny := x+dx, y+dy
					if nx < 0 || nx >= w || ny < 0 || ny >= h {
						continue
					}
					j := ny*w + nx
					if pix[j] == v && lab[j] == 0 {
						lab[j] = next
						stack = append(stack, int32(j))
					}
				}
			}
		}
	}
	return lm, int(next)
}
