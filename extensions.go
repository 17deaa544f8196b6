package paremsp

import (
	"context"
	"fmt"
	"io"

	"repro/internal/contour"
	"repro/internal/core"
	"repro/internal/grayccl"
	"repro/internal/pnm"
	"repro/internal/vol3d"
)

// Contour is the ordered outer boundary of one component.
type Contour = contour.Contour

// Point is a pixel coordinate on a contour.
type Point = contour.Point

// TraceContours extracts the outer boundary of every component of a label
// map with consecutive labels 1..n (Moore neighborhood tracing).
func TraceContours(lm *LabelMap, n int) []Contour { return contour.TraceAll(lm, n) }

// TraceContoursCtx is TraceContours with cooperative cancellation: the seed
// scan polls ctx per row block and after each traced component, aborting
// with ctx.Err().
func TraceContoursCtx(ctx context.Context, lm *LabelMap, n int) ([]Contour, error) {
	if lm == nil {
		return nil, fmt.Errorf("paremsp: nil label map")
	}
	return contour.TraceAllCtx(ctx, lm, n)
}

// ContourPerimeter returns the crack-length perimeter estimate of a traced
// contour (unit steps count 1, diagonal steps sqrt(2)).
func ContourPerimeter(points []Point) float64 { return contour.Perimeter(points) }

// GrayImage is a grayscale raster (one byte per pixel) for the gray-level
// labeling extension.
type GrayImage = grayccl.Image

// Volume is a 3D binary voxel grid for the volumetric labeling extension.
type Volume = vol3d.Volume

// LabelVolumeMap is the labeling result for a Volume; 0 is background.
type LabelVolumeMap = vol3d.LabelVolume

// NewGrayImage returns a zeroed grayscale image.
func NewGrayImage(width, height int) *GrayImage { return grayccl.New(width, height) }

// extOptions resolves the algorithm selection for the gray and volume
// modes, which run the paper's pair-scan machinery only: AlgPAREMSP (the
// default) selects the chunk-parallel labeler, AlgAREMSP its one-thread
// case. Every other algorithm name is rejected — the baselines have no
// gray or 3D form.
func extOptions(mode Mode, opt Options) (core.Options, error) {
	switch opt.Algorithm {
	case "", AlgPAREMSP, AlgAREMSP:
		return core.Options{Threads: opt.kernelThreads()}, nil
	}
	return core.Options{}, fmt.Errorf("paremsp: algorithm %q does not support mode %q (want %q or %q)",
		opt.Algorithm, mode, AlgPAREMSP, AlgAREMSP)
}

// LabelGray computes gray-level connected components (adjacent pixels with
// equal values, 8-connectivity) with the paper's pair-scan + REMSP
// machinery. Every pixel is labeled; labels are consecutive 1..n.
func LabelGray(img *GrayImage) (*LabelMap, int) { return LabelGrayParallel(img, 1) }

// LabelGrayParallel is LabelGray with PAREMSP-style chunked parallelism;
// threads = 0 uses every CPU.
func LabelGrayParallel(img *GrayImage, threads int) (*LabelMap, int) {
	lm := &LabelMap{}
	n, _, _ := grayccl.LabelIntoCtx(context.Background(), img, lm, nil, core.Options{Threads: threads})
	return lm, n
}

// LabelGrayDelta labels components under the tolerance predicate
// |v(p)-v(q)| <= delta between adjacent pixels (transitive closure).
func LabelGrayDelta(img *GrayImage, delta uint8) (*LabelMap, int) {
	lm := &LabelMap{}
	n, _, _ := grayccl.LabelDeltaIntoCtx(context.Background(), img, lm, nil, delta)
	return lm, n
}

// LabelGrayInto is LabelGrayIntoCtx without cancellation.
func LabelGrayInto(img *GrayImage, dst *LabelMap, sc *Scratch, opt Options) (*Result, error) {
	return LabelGrayIntoCtx(context.Background(), img, dst, sc, opt)
}

// LabelGrayIntoCtx labels the gray-level connected components of img into
// caller-provided buffers with cooperative cancellation, under the same
// dst/sc contract as LabelIntoCtx: dst is reshaped with Reset, sc supplies
// the equivalence buffers (shared with the binary algorithms — one Scratch
// serves every mode), and either may be nil. opt.Mode selects the predicate:
// ModeGray (the default here) labels maximal equal-value regions;
// ModeGrayDelta labels the transitive closure of |v(p)-v(q)| <= opt.Delta.
// Gray labeling is 8-connected only. The scan and relabel passes poll ctx
// per row block; a canceled labeling leaves dst and sc reusable but its
// contents undefined.
func LabelGrayIntoCtx(ctx context.Context, img *GrayImage, dst *LabelMap, sc *Scratch, opt Options) (*Result, error) {
	if img == nil {
		return nil, fmt.Errorf("paremsp: nil gray image")
	}
	mode := opt.Mode
	if mode == "" {
		mode = ModeGray
	}
	if mode != ModeGray && mode != ModeGrayDelta {
		return nil, fmt.Errorf("paremsp: LabelGrayIntoCtx supports modes %q and %q, got %q",
			ModeGray, ModeGrayDelta, mode)
	}
	if opt.Connectivity != 0 && opt.Connectivity != 8 {
		return nil, fmt.Errorf("paremsp: mode %q supports only 8-connectivity, got %d", mode, opt.Connectivity)
	}
	copt, err := extOptions(mode, opt)
	if err != nil {
		return nil, err
	}
	if dst == nil {
		dst = &LabelMap{}
	}
	res := &Result{Labels: dst}
	if mode == ModeGrayDelta {
		// The tolerance predicate is not transitive; only the exhaustive
		// sequential scan exists.
		res.NumComponents, res.Phases, err = grayccl.LabelDeltaIntoCtx(ctx, img, dst, sc, opt.Delta)
	} else {
		res.NumComponents, res.Phases, err = grayccl.LabelIntoCtx(ctx, img, dst, sc, copt)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// NewVolume returns a zeroed 3D binary volume.
func NewVolume(w, h, d int) *Volume { return vol3d.NewVolume(w, h, d) }

// VolumeResult is the outcome of a volumetric labeling.
type VolumeResult struct {
	// Labels is the final label volume: consecutive labels 1..NumComponents,
	// background 0.
	Labels *LabelVolumeMap
	// NumComponents is the number of 26-connected components found.
	NumComponents int
	// Phases holds the labeling's per-phase times.
	Phases PhaseTimes
}

// LabelVolume computes 26-connected components of a binary volume with the
// sequential two-pass algorithm; labels are consecutive 1..n.
func LabelVolume(vol *Volume) (*LabelVolumeMap, int) { return LabelVolumeParallel(vol, 1) }

// LabelVolumeParallel is LabelVolume with z-slab parallelism (the PAREMSP
// construction applied along the z axis); threads = 0 uses every CPU.
func LabelVolumeParallel(vol *Volume, threads int) (*LabelVolumeMap, int) {
	lv := &LabelVolumeMap{}
	n, _, _ := vol3d.LabelIntoCtx(context.Background(), vol, lv, nil, core.Options{Threads: threads})
	return lv, n
}

// LabelVolumeInto is LabelVolumeIntoCtx without cancellation.
func LabelVolumeInto(vol *Volume, dst *LabelVolumeMap, sc *Scratch, opt Options) (*VolumeResult, error) {
	return LabelVolumeIntoCtx(context.Background(), vol, dst, sc, opt)
}

// LabelVolumeIntoCtx labels the 26-connected components of vol into caller-
// provided buffers with cooperative cancellation: dst is reshaped with
// Reset, sc supplies the equivalence buffers (shared with the 2D modes),
// and either may be nil. opt.Mode must be ModeVolume or empty; volumetric
// labeling is 26-connected, so opt.Connectivity must be 0 or 26. The scan
// and relabel passes poll ctx per raster-row block (the parallel labeler
// slabs the volume along z exactly as PAREMSP chunks rows); a canceled
// labeling leaves dst and sc reusable but its contents undefined.
func LabelVolumeIntoCtx(ctx context.Context, vol *Volume, dst *LabelVolumeMap, sc *Scratch, opt Options) (*VolumeResult, error) {
	if vol == nil {
		return nil, fmt.Errorf("paremsp: nil volume")
	}
	mode := opt.Mode
	if mode == "" {
		mode = ModeVolume
	}
	if mode != ModeVolume {
		return nil, fmt.Errorf("paremsp: LabelVolumeIntoCtx supports mode %q, got %q", ModeVolume, mode)
	}
	if opt.Connectivity != 0 && opt.Connectivity != 26 {
		return nil, fmt.Errorf("paremsp: mode %q supports only 26-connectivity, got %d", mode, opt.Connectivity)
	}
	copt, err := extOptions(mode, opt)
	if err != nil {
		return nil, err
	}
	if dst == nil {
		dst = &LabelVolumeMap{}
	}
	res := &VolumeResult{Labels: dst}
	res.NumComponents, res.Phases, err = vol3d.LabelIntoCtx(ctx, vol, dst, sc, copt)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// VolumeComponentSizes returns the voxel count of each component of a label
// volume with consecutive labels 1..n, indexed by label-1.
func VolumeComponentSizes(lv *LabelVolumeMap, n int) []int {
	return vol3d.ComponentSizes(lv, n)
}

// DecodeGrayPNM reads a PGM (P2/P5) stream into a gray image, preserving
// gray values instead of binarizing (16-bit samples scale to 8 bits).
func DecodeGrayPNM(r io.Reader) (*GrayImage, error) {
	img := &GrayImage{}
	if err := pnm.DecodeGrayInto(r, img); err != nil {
		return nil, err
	}
	return img, nil
}

// DecodeVolumePNM reads a multi-frame raw-PGM stream — concatenated P5
// graymaps, one per z-slice, identical dimensions — binarizing each slice at
// level (im2bw semantics; 0 selects the paper's 0.5).
func DecodeVolumePNM(r io.Reader, level float64) (*Volume, error) {
	if level == 0 {
		level = 0.5
	}
	vol := &Volume{}
	if err := pnm.DecodeVolumeInto(r, level, vol); err != nil {
		return nil, err
	}
	return vol, nil
}
