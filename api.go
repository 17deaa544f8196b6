package paremsp

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/band"
	"repro/internal/baseline"
	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/pnm"
	"repro/internal/poll"
	"repro/internal/stats"
)

// Image is a binary raster: Pix holds Width*Height bytes row-major, each 0
// (background) or 1 (object pixel).
type Image = binimg.Image

// LabelMap is the labeling result raster: L holds Width*Height labels
// row-major; 0 is background, components are numbered 1..NumComponents.
type LabelMap = binimg.LabelMap

// LabelID is the element type of LabelMap.L and Component.Label (int32).
type LabelID = binimg.Label

// Bitmap is the bit-packed binary raster (1 bit per pixel, 64-bit words,
// rows padded to whole words) consumed natively by the bit-packed algorithms
// AlgBREMSP and AlgPBREMSP.
type Bitmap = binimg.Bitmap

// Component carries per-component statistics: area, bounding box, centroid
// and run count (maximal horizontal runs), from ComponentsOf or LabelStream.
type Component = stats.Component

// PhaseTimes reports one REMSP labeling's per-phase wall time (scan / merge /
// flatten / relabel), as every REMSP kernel measures it; the paper's
// "local" speedup is Scan, "local + merge" is Scan+Merge.
type PhaseTimes = core.PhaseTimes

// NewImage returns a zeroed binary image.
func NewImage(width, height int) *Image { return binimg.New(width, height) }

// NewBitmap returns a zeroed bit-packed binary raster.
func NewBitmap(width, height int) *Bitmap { return binimg.NewBitmap(width, height) }

// ParseImage builds an image from ASCII art ('#'/'1' foreground, '.'/'0'/' '
// background), convenient in tests and examples.
func ParseImage(art string) (*Image, error) { return binimg.Parse(art) }

// FromGray binarizes a grayscale raster with MATLAB im2bw semantics
// (luminance strictly greater than level*255 becomes foreground); the paper
// binarizes all of its datasets with level 0.5.
func FromGray(width, height int, gray []uint8, level float64) (*Image, error) {
	return binimg.FromGray(width, height, gray, level)
}

// DecodePNM reads a PBM (P1/P4) or PGM (P2/P5) stream; grayscale input is
// binarized at level.
func DecodePNM(r io.Reader, level float64) (*Image, error) { return pnm.Decode(r, level) }

// DecodePNG reads a PNG stream and binarizes its luminance at level.
func DecodePNG(r io.Reader, level float64) (*Image, error) { return pnm.DecodePNG(r, level) }

// DecodePBMBitmap reads a raw PBM (P4) stream straight into a bit-packed
// bitmap — P4 rows are already packed, so no byte raster is materialized.
// Pair it with LabelBitmap for the all-packed ingest path.
func DecodePBMBitmap(r io.Reader) (*Bitmap, error) {
	bm := &Bitmap{}
	if err := pnm.DecodePBMBitmapInto(r, bm); err != nil {
		return nil, err
	}
	return bm, nil
}

// EncodePBM writes an image as PBM (raw P4 if raw, else plain P1).
func EncodePBM(w io.Writer, img *Image, raw bool) error { return pnm.EncodePBM(w, img, raw) }

// EncodeLabelsPGM writes a label map as a raw PGM for visual inspection.
func EncodeLabelsPGM(w io.Writer, lm *LabelMap) error { return pnm.EncodePGM(w, lm) }

// EncodeLabelsPNG writes a label map as a grayscale PNG.
func EncodeLabelsPNG(w io.Writer, lm *LabelMap) error { return pnm.EncodePNG(w, lm) }

// Algorithm selects a labeling algorithm.
type Algorithm string

// Algorithms implemented by this library. The first three are the paper's
// contributions; the rest are the baselines it evaluates against, plus the
// flood-fill reference.
const (
	// AlgPAREMSP is the paper's parallel algorithm (default).
	AlgPAREMSP Algorithm = "paremsp"
	// AlgAREMSP is the paper's best sequential algorithm: pair-row scan +
	// REM's union-find with splicing.
	AlgAREMSP Algorithm = "aremsp"
	// AlgCCLREMSP is the paper's second sequential algorithm: decision-tree
	// scan + REM's union-find with splicing.
	AlgCCLREMSP Algorithm = "cclremsp"
	// AlgBREMSP is the bit-packed sequential algorithm (beyond the paper):
	// 1-bit-per-pixel raster, word-parallel run extraction, union-find calls
	// per run, run-by-run final labeling.
	AlgBREMSP Algorithm = "bremsp"
	// AlgPBREMSP is the parallel bit-packed algorithm: BREMSP chunk scans
	// with PAREMSP's disjoint label ranges, run-granular boundary merges and
	// parallel run-by-run labeling.
	AlgPBREMSP Algorithm = "pbremsp"
	// AlgCCLLRPC is Wu-Otoo-Suzuki: decision-tree scan + link-by-rank with
	// path compression.
	AlgCCLLRPC Algorithm = "ccllrpc"
	// AlgARUN is He-Chao-Suzuki 2012: pair-row scan + rtable equivalences.
	AlgARUN Algorithm = "arun"
	// AlgRUN is He-Chao-Suzuki 2008: run-based two-scan.
	AlgRUN Algorithm = "run"
	// AlgClassic is the Rosenfeld all-neighbor two-pass scan.
	AlgClassic Algorithm = "classic"
	// AlgMultiPass is the repeated forward/backward propagation algorithm.
	AlgMultiPass Algorithm = "multipass"
	// AlgSuzuki is the Suzuki-Horiba-Sugie table-accelerated multi-pass
	// algorithm.
	AlgSuzuki Algorithm = "suzuki"
	// AlgFloodFill is the explicit-stack reference labeler.
	AlgFloodFill Algorithm = "floodfill"
)

// Algorithms returns every algorithm name, sorted, for CLI -help output and
// sweep drivers.
func Algorithms() []Algorithm {
	out := []Algorithm{
		AlgPAREMSP, AlgAREMSP, AlgCCLREMSP, AlgBREMSP, AlgPBREMSP,
		AlgCCLLRPC, AlgARUN, AlgRUN,
		AlgClassic, AlgMultiPass, AlgSuzuki, AlgFloodFill,
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Mode selects the labeling predicate a request runs under. The binary mode
// is the paper's subject; the others are the extension workloads
// (gray-level, gray-tolerance, 3D volume) served by the same REMSP
// machinery. Each mode has its own entry point — LabelIntoCtx for
// ModeBinary, LabelGrayIntoCtx for ModeGray/ModeGrayDelta,
// LabelVolumeIntoCtx for ModeVolume — and each entry point rejects the
// modes it does not implement.
type Mode string

// Labeling modes.
const (
	// ModeBinary labels foreground components of a binary raster
	// (the default; 4- or 8-connectivity per Options.Connectivity).
	ModeBinary Mode = "binary"
	// ModeGray labels maximal equal-value regions of a gray raster
	// (8-connectivity; every pixel is labeled).
	ModeGray Mode = "gray"
	// ModeGrayDelta labels the transitive closure of |v(p)-v(q)| <= Delta
	// over adjacent pixels of a gray raster (8-connectivity).
	ModeGrayDelta Mode = "gray-delta"
	// ModeVolume labels 26-connected components of a binary voxel volume.
	ModeVolume Mode = "volume"
)

// Modes returns every mode name, sorted, for CLI -help output and the
// service's request validation.
func Modes() []Mode {
	return []Mode{ModeBinary, ModeGray, ModeGrayDelta, ModeVolume}
}

// Options configures Label and the per-mode entry points.
type Options struct {
	// Algorithm to run; default AlgPAREMSP. The gray and volume modes run
	// the paper's pair-scan machinery only: AlgPAREMSP selects their
	// chunk-parallel labeler, AlgAREMSP the sequential one, and every other
	// name is rejected.
	Algorithm Algorithm
	// Mode is the labeling predicate; empty means the entry point's native
	// mode (ModeBinary for Label/LabelInto/LabelIntoCtx).
	Mode Mode
	// Threads used by a labeling that splits its raster (see Splits):
	// AlgPAREMSP and AlgPBREMSP, and the gray and volume modes under
	// AlgPAREMSP (default 0: all CPUs). No labeling splits into more chunks
	// than it has scan units (row pairs, rows or plane pairs). Every other
	// labeling runs on one thread.
	Threads int
	// Connectivity: 8 (default) or 4. Only AlgClassic, AlgMultiPass and
	// AlgFloodFill support 4-connectivity; the paper's algorithms are
	// 8-connected and return an error for 4. ModeVolume is 26-connected
	// (0 or 26 accepted); the gray modes are 8-connected only.
	Connectivity int
	// Delta is ModeGrayDelta's adjacency tolerance; ignored by every other
	// mode.
	Delta uint8
	// CountOnly asks LabelIntoCtx and LabelBitmapIntoCtx for the component
	// count alone. The REMSP algorithms stop after FLATTEN (paper Alg. 3),
	// which already yields it, and skip the relabel pass, so
	// Phases.Relabel reads 0; the baselines label in full. The Result then
	// carries no Labels, and dst is left undefined but reusable. The gray
	// and volume entry points ignore it.
	CountOnly bool
}

// Splits reports whether the labeling o selects divides its raster among
// o.Threads goroutines: PAREMSP (the default) and PBREMSP do, in every mode
// but gray-delta. AREMSP, CCLREMSP and BREMSP, the baselines and the
// gray-delta scan run on one goroutine whatever o.Threads says.
func (o Options) Splits() bool {
	switch o.Algorithm {
	case "", AlgPAREMSP, AlgPBREMSP:
		return o.Mode != ModeGrayDelta
	}
	return false
}

// kernelThreads is the thread count the kernel runs o's labeling on:
// o.Threads when it splits its raster, one when it does not.
func (o Options) kernelThreads() int {
	if o.Splits() {
		return o.Threads
	}
	return 1
}

// Result is a labeling outcome.
type Result struct {
	// Labels is the final label map: consecutive labels 1..NumComponents,
	// background 0; nil for an Options.CountOnly labeling.
	Labels *LabelMap
	// NumComponents is the number of connected components found.
	NumComponents int
	// Phases holds the per-phase times of every REMSP labeling (PAREMSP,
	// AREMSP, CCLREMSP, BREMSP, PBREMSP and the gray modes); zero for the
	// baselines, which have no four-phase structure.
	Phases PhaseTimes
}

// Label runs the selected algorithm over img.
func Label(img *Image, opt Options) (*Result, error) {
	return LabelInto(img, nil, nil, opt)
}

// Scratch holds reusable labeling state (the union-find equivalence arrays)
// for LabelInto. A zero Scratch is ready to use; a Scratch must not be shared
// by concurrent labelings.
type Scratch = core.Scratch

// LabelInto is Label writing its result into caller-provided buffers: dst is
// reshaped with Reset (so its label buffer is reused when large enough) and
// sc supplies the equivalence arrays. Either may be nil, in which case fresh
// buffers are allocated, making LabelInto(img, nil, nil, opt) identical to
// Label(img, opt). Reusing dst and sc across calls makes sustained labeling
// with the paper's algorithms (PAREMSP, AREMSP, CCLREMSP) allocation-free;
// for the baseline algorithms the labeling still allocates internally and
// the result is copied into dst.
func LabelInto(img *Image, dst *LabelMap, sc *Scratch, opt Options) (*Result, error) {
	return LabelIntoCtx(context.Background(), img, dst, sc, opt)
}

// LabelIntoCtx is LabelInto with cooperative cancellation: the paper
// algorithms and their bit-packed variants (AlgPAREMSP, AlgAREMSP,
// AlgCCLREMSP, AlgBREMSP, AlgPBREMSP) poll ctx per row block during their
// scan and relabel passes, and the multi-pass baselines (AlgMultiPass,
// AlgSuzuki), whose pass count grows with component length, per row block
// of every pass; each aborts with ctx.Err(). The check is allocation-free
// and costs one predicted branch per row when ctx can never be canceled.
// The linear-time baselines (AlgCCLLRPC, AlgARUN, AlgRUN, AlgClassic,
// AlgFloodFill) check ctx only before they start. A canceled labeling
// leaves dst and sc in an undefined but reusable state.
func LabelIntoCtx(ctx context.Context, img *Image, dst *LabelMap, sc *Scratch, opt Options) (*Result, error) {
	if img == nil {
		return nil, fmt.Errorf("paremsp: nil image")
	}
	if opt.Mode != "" && opt.Mode != ModeBinary {
		return nil, fmt.Errorf("paremsp: LabelIntoCtx supports mode %q, got %q (use LabelGrayIntoCtx or LabelVolumeIntoCtx)",
			ModeBinary, opt.Mode)
	}
	alg := opt.Algorithm
	if alg == "" {
		alg = AlgPAREMSP
	}
	conn := opt.Connectivity
	if conn == 0 {
		conn = 8
	}
	if conn != 4 && conn != 8 {
		return nil, fmt.Errorf("paremsp: connectivity must be 4 or 8, got %d", conn)
	}
	if conn == 4 {
		switch alg {
		case AlgClassic, AlgMultiPass, AlgSuzuki, AlgFloodFill:
		default:
			return nil, fmt.Errorf("paremsp: algorithm %q supports only 8-connectivity", alg)
		}
	}

	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
	}

	var (
		n   int
		err error
		ok  = true // false once a polling baseline has stopped on ctx
	)
	res := &Result{}
	lm := dst
	if lm == nil {
		lm = &LabelMap{}
	}
	copt := core.Options{Threads: opt.kernelThreads(), CountOnly: opt.CountOnly}
	switch alg {
	case AlgPAREMSP, AlgAREMSP:
		n, res.Phases, err = core.PAREMSP(ctx, img, lm, sc, copt)
	case AlgCCLREMSP:
		n, res.Phases, err = core.CCLREMSP(ctx, img, lm, sc, copt)
	case AlgBREMSP, AlgPBREMSP:
		n, res.Phases, err = core.PBREMSP(ctx, img, lm, sc, copt)
	case AlgCCLLRPC:
		lm, n = baseline.CCLLRPC(img)
	case AlgARUN:
		lm, n = baseline.ARUN(img)
	case AlgRUN:
		lm, n = baseline.RUN(img)
	case AlgClassic:
		if conn == 4 {
			lm, n = baseline.Classic4(img)
		} else {
			lm, n = baseline.Classic8(img)
		}
	case AlgMultiPass:
		lm, n, ok = baseline.MultiPass(img, baseline.Connectivity(conn), poll.Done(ctx))
	case AlgSuzuki:
		lm, n, ok = baseline.Suzuki(img, baseline.Connectivity(conn), poll.Done(ctx))
	case AlgFloodFill:
		lm, n = baseline.FloodFill(img, baseline.Connectivity(conn))
	default:
		return nil, fmt.Errorf("paremsp: unknown algorithm %q", alg)
	}
	if !ok {
		err = poll.Err(ctx)
	}
	if err != nil {
		return nil, err
	}
	res.NumComponents = n
	if opt.CountOnly {
		return res, nil
	}
	if dst != nil && lm != dst {
		// A baseline labeled into its own fresh map; honor the dst contract.
		// The copy overwrites every label, so nothing needs clearing.
		dst.Reshape(lm.Width, lm.Height)
		copy(dst.L, lm.L)
		lm = dst
	}
	res.Labels = lm
	return res, nil
}

// LabelBitmap runs a bit-packed algorithm directly over a packed bitmap.
func LabelBitmap(bm *Bitmap, opt Options) (*Result, error) {
	return LabelBitmapInto(bm, nil, nil, opt)
}

// LabelBitmapInto is LabelBitmap writing into caller-provided buffers (see
// LabelInto for the dst/sc contract). The bit-packed run kernel labels the
// packed raster under three names: AlgPBREMSP (the default) and AlgBREMSP,
// its one-thread case, number components in raster order, and AlgPAREMSP
// numbers them as PAREMSP does over the unpacked image, so its label map
// equals LabelInto's with AlgPAREMSP byte for byte, at any thread count.
// Connectivity must be 8. For any other algorithm, unpack with
// Bitmap.ToImage and call LabelInto.
func LabelBitmapInto(bm *Bitmap, dst *LabelMap, sc *Scratch, opt Options) (*Result, error) {
	return LabelBitmapIntoCtx(context.Background(), bm, dst, sc, opt)
}

// LabelBitmapIntoCtx is LabelBitmapInto with cooperative cancellation (see
// LabelIntoCtx; both bit-packed algorithms poll ctx per row block).
func LabelBitmapIntoCtx(ctx context.Context, bm *Bitmap, dst *LabelMap, sc *Scratch, opt Options) (*Result, error) {
	if bm == nil {
		return nil, fmt.Errorf("paremsp: nil bitmap")
	}
	if opt.Mode != "" && opt.Mode != ModeBinary {
		return nil, fmt.Errorf("paremsp: LabelBitmapIntoCtx supports mode %q, got %q", ModeBinary, opt.Mode)
	}
	alg := opt.Algorithm
	if alg == "" {
		alg = AlgPBREMSP
	}
	if opt.Connectivity != 0 && opt.Connectivity != 8 {
		return nil, fmt.Errorf("paremsp: algorithm %q supports only 8-connectivity", alg)
	}
	if dst == nil {
		dst = &LabelMap{}
	}
	res := &Result{}
	if !opt.CountOnly {
		res.Labels = dst
	}
	var err error
	copt := core.Options{Threads: opt.kernelThreads(), CountOnly: opt.CountOnly}
	switch alg {
	case AlgPAREMSP:
		res.NumComponents, res.Phases, err = core.PAREMSPBitmap(ctx, bm, dst, sc, copt)
	case AlgBREMSP, AlgPBREMSP:
		res.NumComponents, res.Phases, err = core.PBREMSPBitmap(ctx, bm, dst, sc, copt)
	default:
		return nil, fmt.Errorf("paremsp: algorithm %q cannot label a packed bitmap (want %q, %q or %q)",
			alg, AlgPAREMSP, AlgBREMSP, AlgPBREMSP)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// StreamOptions configures LabelStream.
type StreamOptions struct {
	// BandRows is the streaming band height in rows; 0 selects
	// band.DefaultBandRows. Peak memory scales with BandRows (bitmap, run
	// set and equivalence table for one band), never with the image height.
	BandRows int
	// Level is the binarization threshold for raw PGM (P5) input (im2bw
	// semantics, like DecodePNM); 0 selects the paper's 0.5. Ignored for
	// raw PBM (P4) input.
	Level float64
}

// StreamResult is the outcome of LabelStream: the component count and
// per-component statistics of the streamed image. No label raster is
// produced; use Label when the full LabelMap is needed and fits in memory.
type StreamResult = band.Result

// ComponentStats is Component under the name LabelStream's records had.
//
// Deprecated: use Component.
type ComponentStats = Component

// LabelStream labels a raw PBM (P4) or raw PGM (P5) stream out-of-core:
// the image is consumed as fixed-height row bands, each labeled with the
// bit-packed run scan and stitched to its predecessor by unioning the runs
// of the seam rows, while per-component statistics accumulate run-by-run.
// Peak memory is O(one band + equivalence table), independent of image
// height — a 100k-row raster streams through a few megabytes.
func LabelStream(r io.Reader, opt StreamOptions) (*StreamResult, error) {
	level := opt.Level
	if level == 0 {
		level = 0.5
	}
	src, err := pnm.NewBandReader(r, level)
	if err != nil {
		return nil, err
	}
	return band.Stream(src, band.Options{BandRows: opt.BandRows})
}

// JobState is the lifecycle state of an asynchronous labeling job in the
// HTTP service's job API: a job is created JobQueued, moves to JobRunning
// when a pool worker picks it up, and finishes JobDone (result retained
// until its TTL lapses), JobFailed, or JobCanceled (the job's context was
// canceled — client timeout, server drain, or -job-timeout — before it
// completed).
type JobState = jobs.State

// Job lifecycle states.
const (
	JobQueued   JobState = jobs.StateQueued
	JobRunning  JobState = jobs.StateRunning
	JobDone     JobState = jobs.StateDone
	JobFailed   JobState = jobs.StateFailed
	JobCanceled JobState = jobs.StateCanceled
)

// JobKind selects what an asynchronous job computes: a full labeling
// (renderable as JSON, PGM, PNG or a CCL1 stream), streaming component
// statistics (JSON only, computed out-of-core by the band labeler), a
// labeling with per-component boundary polylines (JSON only), a gray-level
// labeling (JSON or PGM), or a volumetric labeling (JSON only).
type JobKind = jobs.Kind

// Job kinds.
const (
	JobLabels   JobKind = jobs.KindLabels
	JobStats    JobKind = jobs.KindStats
	JobContours JobKind = jobs.KindContours
	JobGray     JobKind = jobs.KindGray
	JobVolume   JobKind = jobs.KindVolume
)

// JobStoreOptions configures the service's asynchronous job store: the
// backend (Backend "memory" — the default — keeps everything in sharded
// in-process maps; "disk" also journals job metadata and writes result
// blobs under Dir so finished jobs survive a restart and interrupted ones
// are recovered), how long finished results are retained before the
// background sweeper evicts them, and the sweep period. The zero value
// selects the memory backend, a 15-minute TTL and a TTL/4 sweep.
type JobStoreOptions = jobs.Options

// Job store backends for JobStoreOptions.Backend.
const (
	JobStoreMemory = jobs.BackendMemory
	JobStoreDisk   = jobs.BackendDisk
	// Deprecated: use JobStoreDisk, the same store under its former name.
	JobStoreSQLite = "sqlite"
)

// JobKey derives the job API's deduplication key (which doubles as the job
// ID) for a request tuple: the SHA-256 of the output kind, algorithm,
// connectivity, binarization level and raw input bytes, truncated to its
// first 128 bits (32 hex characters). It is JobKeyMode in the kind's native
// mode (ModeGray for JobGray), so it applies exactly the normalization the
// service applies before hashing and the returned ID matches what
// POST /v1/jobs assigns to the same submission.
func JobKey(kind JobKind, alg Algorithm, connectivity int, level float64, body []byte) string {
	return JobKeyMode(kind, "", alg, connectivity, level, 0, body)
}

// JobKeyMode derives the job ID of a submission in any mode, applying the
// per-kind normalization the service applies before hashing. The kind is
// part of the hash, so the same body submitted under different modes always
// yields distinct job IDs. An empty algorithm means the default
// (AlgPAREMSP). Normalization per kind:
//
//   - JobGray (ModeGray): connectivity is pinned to 8 and the level to 0
//     (gray labeling never binarizes).
//   - JobGray (ModeGrayDelta): the algorithm slot holds "delta=<delta>" —
//     the tolerance scan has a single implementation, so only the tolerance
//     differentiates submissions.
//   - JobVolume: connectivity is pinned to 26; the level participates
//     (volume slices are binarized).
//   - JobStats: keys as the band labeler — the algorithm and connectivity
//     inputs are ignored.
//   - JobLabels and JobContours (the traced labeling is a binary labeling):
//     connectivity 0 means 8.
//
// For every kind but gray and volume the level is zeroed for raw PBM (P4)
// bodies, which no level can affect. The mode only tells gray-delta apart.
func JobKeyMode(kind JobKind, mode Mode, alg Algorithm, connectivity int, level float64, delta uint8, body []byte) string {
	if alg == "" {
		alg = AlgPAREMSP
	}
	switch kind {
	case JobGray:
		if mode == ModeGrayDelta {
			return jobs.Key(kind, fmt.Sprintf("delta=%d", delta), 8, 0, body)
		}
		return jobs.Key(kind, string(alg), 8, 0, body)
	case JobVolume:
		return jobs.Key(kind, string(alg), 26, level, body)
	default:
		if len(body) >= 2 && body[0] == 'P' && body[1] == '4' {
			level = 0
		}
		if kind == JobStats {
			return jobs.Key(kind, "stream", 8, level, body)
		}
		if connectivity == 0 {
			connectivity = 8
		}
		return jobs.Key(kind, string(alg), connectivity, level, body)
	}
}

// CountComponents runs AREMSP over img through FLATTEN and returns only
// the component count; no final label map is written.
func CountComponents(img *Image) int {
	n, _, _ := core.PAREMSP(context.Background(), img, &LabelMap{}, nil, core.Options{Threads: 1, CountOnly: true})
	return n
}

// ComponentsOf computes per-component statistics from a label map produced
// by Label.
func ComponentsOf(lm *LabelMap) []Component { return stats.Components(lm) }

// Validate checks that lm is a structurally correct labeling of img with the
// claimed component count (conn8 selects the connectivity to verify under).
func Validate(img *Image, lm *LabelMap, claimed int, conn8 bool) error {
	return stats.Validate(img, lm, claimed, conn8)
}

// Equivalent reports whether two labelings encode the same partition (label
// numbering may differ).
func Equivalent(a, b *LabelMap) error { return stats.Equivalent(a, b) }

// RelabelByArea renumbers a consecutive labeling in place so label 1 is the
// largest component, label 2 the next, and so on.
func RelabelByArea(lm *LabelMap, n int) { stats.RelabelByArea(lm, n) }
