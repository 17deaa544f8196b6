// Package contour extracts component boundaries from labeled images —
// the downstream geometry step of the inspection/recognition pipelines the
// paper motivates, and the core operation of the contour-tracing CCL family
// (Chang-Chen-Lu) the paper's related work cites.
//
// Trace follows the outer boundary of each component with Moore
// neighborhood tracing (8-connectivity, consistent with the labelers):
// starting from the component's raster-first pixel, it walks the boundary
// clockwise, emitting each boundary pixel once per visit, until it returns
// to the start pixel entering from the start direction (Jacob's stopping
// criterion).
package contour

import (
	"context"

	"repro/internal/binimg"
	"repro/internal/poll"
)

// Point is a pixel coordinate.
type Point struct {
	X, Y int
}

// Contour is the ordered outer boundary of one component.
type Contour struct {
	Label  binimg.Label
	Points []Point
}

// moore lists the 8 neighbors in clockwise order starting from west.
var moore = [8]Point{
	{-1, 0}, {-1, -1}, {0, -1}, {1, -1}, {1, 0}, {1, 1}, {0, 1}, {-1, 1},
}

// TraceAll extracts the outer contour of every component in a label map
// with consecutive labels 1..n, indexed by label-1.
func TraceAll(lm *binimg.LabelMap, n int) []Contour {
	out, _ := TraceAllCtx(context.Background(), lm, n)
	return out
}

// TraceAllCtx is TraceAll with cooperative cancellation: the seed scan polls
// ctx's done channel every poll.Rows rows and additionally after each traced
// component (one trace can walk the whole raster). On cancellation it
// returns nil and ctx's error.
func TraceAllCtx(ctx context.Context, lm *binimg.LabelMap, n int) ([]Contour, error) {
	done := poll.Done(ctx)
	out := make([]Contour, n)
	seen := make([]bool, n)
	found := 0
	for y := 0; y < lm.Height && found < n; y++ {
		if y%poll.Rows == 0 && poll.Stopped(done) {
			return nil, poll.Err(ctx)
		}
		for x := 0; x < lm.Width && found < n; x++ {
			l := lm.L[y*lm.Width+x]
			if l == 0 || seen[l-1] {
				continue
			}
			seen[l-1] = true
			found++
			out[l-1] = Contour{Label: l, Points: trace(lm, l, x, y)}
			if poll.Stopped(done) {
				return nil, poll.Err(ctx)
			}
		}
	}
	return out, nil
}

// Trace extracts the outer contour of the component with the given label,
// or nil if the label is absent.
func Trace(lm *binimg.LabelMap, label binimg.Label) []Point {
	for y := 0; y < lm.Height; y++ {
		for x := 0; x < lm.Width; x++ {
			if lm.L[y*lm.Width+x] == label {
				return trace(lm, label, x, y)
			}
		}
	}
	return nil
}

// trace runs Moore boundary tracing from the component's raster-first pixel
// (sx, sy): by construction nothing of the component lies above or to the
// left of it, so entering from the west is a valid backtrack direction.
func trace(lm *binimg.LabelMap, label binimg.Label, sx, sy int) []Point {
	w, h := lm.Width, lm.Height
	at := func(x, y int) bool {
		return x >= 0 && x < w && y >= 0 && y < h && lm.L[y*w+x] == label
	}
	start := Point{sx, sy}
	points := []Point{start}

	// Single-pixel component: no neighbors.
	single := true
	for _, d := range moore {
		if at(sx+d.X, sy+d.Y) {
			single = false
			break
		}
	}
	if single {
		return points
	}

	// dir is the index in moore of the backtrack direction (where we came
	// from). We entered the start pixel from the west (index 0).
	cur := start
	dir := 0
	startDir := -1
	for {
		// Search clockwise from the backtrack direction for the next
		// component pixel.
		next := -1
		for i := 1; i <= 8; i++ {
			k := (dir + i) % 8
			if at(cur.X+moore[k].X, cur.Y+moore[k].Y) {
				next = k
				break
			}
		}
		if next < 0 {
			return points // unreachable for multi-pixel components
		}
		if cur == start {
			if startDir == -1 {
				startDir = next
			} else if next == startDir {
				// Jacob's criterion: back at start, leaving the same way.
				return points
			}
		}
		cur = Point{cur.X + moore[next].X, cur.Y + moore[next].Y}
		if cur == start && startDir != -1 {
			// Re-entered start; loop once more to check the exit direction.
		} else {
			points = append(points, cur)
		}
		// New backtrack direction: opposite of the direction we moved in.
		dir = (next + 4) % 8
	}
}

// Perimeter returns the boundary length of a contour counting unit steps as
// 1 and diagonal steps as sqrt(2), the standard crack-length estimate.
func Perimeter(points []Point) float64 {
	if len(points) < 2 {
		return 0
	}
	const sqrt2 = 1.4142135623730951
	total := 0.0
	for i := 1; i <= len(points); i++ {
		a := points[i-1]
		b := points[i%len(points)]
		if a.X != b.X && a.Y != b.Y {
			total += sqrt2
		} else if a != b {
			total++
		}
	}
	return total
}

// BoundingBox returns the min/max corners of a contour.
func BoundingBox(points []Point) (min, max Point) {
	if len(points) == 0 {
		return
	}
	min, max = points[0], points[0]
	for _, p := range points[1:] {
		if p.X < min.X {
			min.X = p.X
		}
		if p.Y < min.Y {
			min.Y = p.Y
		}
		if p.X > max.X {
			max.X = p.X
		}
		if p.Y > max.Y {
			max.Y = p.Y
		}
	}
	return
}
