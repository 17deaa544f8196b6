// Package baseline implements the CCL algorithms the paper compares against
// (CCLLRPC, ARUN, RUN, the repeated-pass algorithm) plus the flood-fill
// reference labeler that every other algorithm in the repository is verified
// against.
package baseline

import (
	"repro/internal/binimg"
)

// Connectivity selects 4- or 8-connectedness. The paper's algorithms use
// 8-connectivity exclusively; the reference and classic algorithms support
// both.
type Connectivity int

// Supported connectivities.
const (
	Conn4 Connectivity = 4
	Conn8 Connectivity = 8
)

// FloodFill labels img by explicit-stack flood fill, assigning consecutive
// labels 1..n in raster order of each component's first pixel. It is the
// correctness oracle: simple enough to be obviously right, with no shared
// machinery with the two-pass algorithms. Returns the label map and n.
func FloodFill(img *binimg.Image, conn Connectivity) (*binimg.LabelMap, int) {
	w, h := img.Width, img.Height
	lm := binimg.NewLabelMap(w, h)
	pix := img.Pix
	lab := lm.L
	var next binimg.Label = 1
	queue := make([]int32, 0, 1024)

	for start, v := range pix {
		if v == 0 || lab[start] != 0 {
			continue
		}
		lab[start] = next
		queue = append(queue[:0], int32(start))
		for len(queue) > 0 {
			idx := int(queue[len(queue)-1])
			queue = queue[:len(queue)-1]
			x, y := idx%w, idx/w
			visit := func(nx, ny int) {
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					return
				}
				ni := ny*w + nx
				if pix[ni] != 0 && lab[ni] == 0 {
					lab[ni] = next
					queue = append(queue, int32(ni))
				}
			}
			visit(x-1, y)
			visit(x+1, y)
			visit(x, y-1)
			visit(x, y+1)
			if conn == Conn8 {
				visit(x-1, y-1)
				visit(x+1, y-1)
				visit(x-1, y+1)
				visit(x+1, y+1)
			}
		}
		next++
	}
	return lm, int(next - 1)
}
