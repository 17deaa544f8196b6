// Package vol3d extends the paper's two-pass CCL machinery to 3D binary
// volumes (the medical-image and cluster-analysis settings the paper's
// introduction and related work cite): a forward raster scan over voxels
// that examines the 13 already-visited neighbors of the 26-neighborhood,
// records equivalences in REM's union-find with splicing, flattens, and
// relabels. It is a core.Kernel: the volume is slabbed along z exactly the
// way PAREMSP chunks rows, slab-boundary planes are merged with the
// concurrent REM union, and one slab is the sequential labeler.
//
// A canceled labeling leaves its label volume and Scratch in an undefined
// but reusable state; callers must discard the result.
package vol3d

import (
	"context"
	"fmt"

	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/poll"
	"repro/internal/unionfind"
)

// Volume is a binary voxel grid: Vox holds W*H*D bytes, x-fastest then y
// then z; 0 is background, 1 is an object voxel.
type Volume struct {
	W, H, D int
	Vox     []uint8
}

// NewVolume returns a zeroed volume.
func NewVolume(w, h, d int) *Volume {
	if w < 0 || h < 0 || d < 0 {
		panic(fmt.Sprintf("vol3d: negative dimensions %dx%dx%d", w, h, d))
	}
	return &Volume{W: w, H: h, D: d, Vox: make([]uint8, w*h*d)}
}

// At returns the voxel at (x, y, z); it panics out of range.
func (v *Volume) At(x, y, z int) uint8 {
	if x < 0 || x >= v.W || y < 0 || y >= v.H || z < 0 || z >= v.D {
		panic(fmt.Sprintf("vol3d: At(%d,%d,%d) out of range %dx%dx%d", x, y, z, v.W, v.H, v.D))
	}
	return v.Vox[(z*v.H+y)*v.W+x]
}

// Set writes the voxel at (x, y, z); it panics out of range or on a value
// other than 0 or 1.
func (v *Volume) Set(x, y, z int, val uint8) {
	if x < 0 || x >= v.W || y < 0 || y >= v.H || z < 0 || z >= v.D {
		panic(fmt.Sprintf("vol3d: Set(%d,%d,%d) out of range %dx%dx%d", x, y, z, v.W, v.H, v.D))
	}
	if val > 1 {
		panic(fmt.Sprintf("vol3d: Set value %d, want 0 or 1", val))
	}
	v.Vox[(z*v.H+y)*v.W+x] = val
}

// ForegroundCount returns the number of object voxels.
func (v *Volume) ForegroundCount() int {
	n := 0
	for _, b := range v.Vox {
		if b != 0 {
			n++
		}
	}
	return n
}

// LabelVolume is the label raster for a volume; 0 is background.
type LabelVolume struct {
	W, H, D int
	L       []binimg.Label
}

// NewLabelVolume returns a zeroed label volume.
func NewLabelVolume(w, h, d int) *LabelVolume {
	return &LabelVolume{W: w, H: h, D: d, L: make([]binimg.Label, w*h*d)}
}

// At returns the label at (x, y, z).
func (lv *LabelVolume) At(x, y, z int) binimg.Label {
	return lv.L[(z*lv.H+y)*lv.W+x]
}

// MaxLabels3D bounds the provisional labels a 26-connected scan can create:
// new-label voxels form an independent set in the 26-neighborhood graph, at
// most ceil(w/2)*ceil(h/2)*ceil(d/2).
func MaxLabels3D(w, h, d int) int {
	return ((w + 1) / 2) * ((h + 1) / 2) * ((d + 1) / 2)
}

// visited13 lists the 13 neighbor offsets scanned before the current voxel
// in x-fastest raster order: the 9 voxels of the previous z-plane's 3x3
// window, the 3 upper voxels of the current plane, and the left voxel.
var visited13 = [13][3]int{
	{-1, -1, -1}, {0, -1, -1}, {1, -1, -1},
	{-1, 0, -1}, {0, 0, -1}, {1, 0, -1},
	{-1, 1, -1}, {0, 1, -1}, {1, 1, -1},
	{-1, -1, 0}, {0, -1, 0}, {1, -1, 0},
	{-1, 0, 0},
}

// scanRange labels the z-slab [zStart, zEnd) of vol into lv, drawing labels
// from offset+1 in the shared parent array p; planes below zStart are never
// read. Polls done every poll.Rows raster rows. Returns the last label used
// and whether it ran to completion.
func scanRange(vol *Volume, lv *LabelVolume, p []binimg.Label, offset binimg.Label, zStart, zEnd int, done <-chan struct{}) (binimg.Label, bool) {
	w, h := vol.W, vol.H
	vox := vol.Vox
	lab := lv.L
	count := offset
	rows := 0
	for z := zStart; z < zEnd; z++ {
		for y := 0; y < h; y++ {
			if rows%poll.Rows == 0 && poll.Stopped(done) {
				return count, false
			}
			rows++
			base := (z*h + y) * w
			for x := 0; x < w; x++ {
				if vox[base+x] == 0 {
					continue
				}
				var le binimg.Label
				for _, off := range visited13 {
					nx, ny, nz := x+off[0], y+off[1], z+off[2]
					if nx < 0 || nx >= w || ny < 0 || ny >= h || nz < zStart {
						continue
					}
					ni := (nz*h+ny)*w + nx
					if vox[ni] == 0 {
						continue
					}
					if le == 0 {
						le = lab[ni]
					} else if lab[ni] != le {
						le = unionfind.MergeRemSP(p, le, lab[ni])
					}
				}
				if le == 0 {
					count++
					p[count] = count
					le = count
				}
				lab[base+x] = le
			}
		}
	}
	return count, true
}

// Reset reshapes v to w×h×d, reusing the voxel buffer when large enough;
// contents are zeroed. Long-lived servers decode request bodies into pooled
// volumes this way.
func (v *Volume) Reset(w, h, d int) {
	if w < 0 || h < 0 || d < 0 {
		panic(fmt.Sprintf("vol3d: negative dimensions %dx%dx%d", w, h, d))
	}
	n := w * h * d
	if cap(v.Vox) < n {
		v.Vox = make([]uint8, n)
	} else {
		v.Vox = v.Vox[:n]
		clear(v.Vox)
	}
	v.W, v.H, v.D = w, h, d
}

// Reset reshapes lv to w×h×d, reusing the label buffer when large enough;
// contents are zeroed.
func (lv *LabelVolume) Reset(w, h, d int) {
	if w < 0 || h < 0 || d < 0 {
		panic(fmt.Sprintf("vol3d: negative dimensions %dx%dx%d", w, h, d))
	}
	n := w * h * d
	if cap(lv.L) < n {
		lv.L = make([]binimg.Label, n)
	} else {
		lv.L = lv.L[:n]
		clear(lv.L)
	}
	lv.W, lv.H, lv.D = w, h, d
}

// LabelIntoCtx computes the 26-connected components of vol into lv
// (reshaped with Reset; consecutive labels 1..n, background 0) and returns
// n. It is the PAREMSP construction applied along z: the volume is slabbed
// into even-thickness z-ranges scanned concurrently with disjoint label
// ranges (a plane pair budgets MaxLabels3D(w, h, 2) labels), and each
// slab-boundary plane is merged against the plane below it with the
// paper's locked MERGER. One thread is the sequential two-pass labeler. The
// equivalence buffers come from sc (nil allocates fresh ones); the scan and
// relabel poll ctx every 64 raster rows. It returns n with the phase times
// core.Kernel.Run measured.
func LabelIntoCtx(ctx context.Context, vol *Volume, lv *LabelVolume, sc *core.Scratch, opt core.Options) (int, core.PhaseTimes, error) {
	w, h := vol.W, vol.H
	lv.Reset(w, h, vol.D)
	plane := w * h
	k := core.Kernel{
		Rows: vol.D, Unit: 2, Stride: MaxLabels3D(w, h, 2),
		Scan: func(c *core.Chunk) (binimg.Label, bool) {
			return scanRange(vol, lv, c.P, c.Offset, c.Lo, c.Hi, c.Done)
		},
		Seam:    func(c *core.Chunk, merge func(x, y binimg.Label)) { mergeBoundaryPlane(vol, lv, merge, c.Lo) },
		Relabel: func(c *core.Chunk) bool { return core.RelabelFlat(c, lv.L[c.Lo*plane:c.Hi*plane], w) },
	}
	return k.Run(ctx, sc, opt)
}

// mergeBoundaryPlane unites every foreground voxel of plane z with its
// foreground neighbors in plane z-1 (the 3x3 window below).
func mergeBoundaryPlane(vol *Volume, lv *LabelVolume, merge func(x, y binimg.Label), z int) {
	w, h := vol.W, vol.H
	vox := vol.Vox
	lab := lv.L
	for y := 0; y < h; y++ {
		base := (z*h + y) * w
		for x := 0; x < w; x++ {
			if vox[base+x] == 0 {
				continue
			}
			le := lab[base+x]
			for dy := -1; dy <= 1; dy++ {
				ny := y + dy
				if ny < 0 || ny >= h {
					continue
				}
				below := ((z-1)*h + ny) * w
				for dx := -1; dx <= 1; dx++ {
					nx := x + dx
					if nx < 0 || nx >= w {
						continue
					}
					if vox[below+nx] != 0 {
						merge(le, lab[below+nx])
					}
				}
			}
		}
	}
}

// FloodFill is the 3D reference labeler. conn26 selects 26-connectivity;
// false selects 6-connectivity (face neighbors only).
func FloodFill(vol *Volume, conn26 bool) (*LabelVolume, int) {
	w, h, d := vol.W, vol.H, vol.D
	lv := NewLabelVolume(w, h, d)
	vox := vol.Vox
	lab := lv.L
	var next binimg.Label
	stack := make([]int32, 0, 1024)
	for s, b := range vox {
		if b == 0 || lab[s] != 0 {
			continue
		}
		next++
		lab[s] = next
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			i := int(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			x := i % w
			y := (i / w) % h
			z := i / (w * h)
			for dz := -1; dz <= 1; dz++ {
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						if dx == 0 && dy == 0 && dz == 0 {
							continue
						}
						if !conn26 && dx*dx+dy*dy+dz*dz != 1 {
							continue
						}
						nx, ny, nz := x+dx, y+dy, z+dz
						if nx < 0 || nx >= w || ny < 0 || ny >= h || nz < 0 || nz >= d {
							continue
						}
						j := (nz*h+ny)*w + nx
						if vox[j] != 0 && lab[j] == 0 {
							lab[j] = next
							stack = append(stack, int32(j))
						}
					}
				}
			}
		}
	}
	return lv, int(next)
}

// ComponentSizes returns the voxel count of each component, indexed by
// label-1, for a label volume with consecutive labels 1..n.
func ComponentSizes(lv *LabelVolume, n int) []int {
	sizes := make([]int, n)
	for _, v := range lv.L {
		if v != 0 {
			sizes[v-1]++
		}
	}
	return sizes
}
