package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/baseline"
	"repro/internal/binimg"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/grayccl"
	"repro/internal/pnm"
	"repro/internal/stats"
	"repro/internal/vol3d"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlLarge = "label-large"
	wlMix   = "label-small-mix"
	wlJobs  = "jobs-async"
)

// Request types. Each names one way a client calls ccserve; the traced
// replay runs the same handler path in-process for each.
const (
	rqNoComp   = "p4-json-nocomp" // POST /v1/label?components=false, raw P4
	rqJSON     = "p4-json"        // POST /v1/label, raw P4, JSON with components
	rqLevel    = "p5-level"       // POST /v1/label?level=0.35, P5 binarized by the server
	rqContours = "contours"       // POST /v1/label?contours=true
	rqCCL      = "ccl1"           // POST /v1/label, Accept: application/x-ccl
	rqPGM      = "pgm"            // POST /v1/label, Accept: image/x-portable-graymap
	rqGray     = "gray"           // POST /v1/label?mode=gray, P5 gray raster
	rqStats    = "stats"          // POST /v1/stats, raw P4
	rqVolume   = "volume"         // POST /v1/volume, stacked P5 frames
)

// mixOrder is label-small-mix's fixed request-type rotation.
var mixOrder = []string{rqJSON, rqLevel, rqContours, rqCCL, rqPGM, rqGray, rqStats, rqVolume}

// jobKinds is jobs-async's batch-kind rotation.
var jobKinds = []string{"labels", "contours", "gray", "volume", "stats"}

// p5Level is the ?level= of rqLevel requests. Their P5 bodies put every
// foreground pixel above level*255 and every background pixel at or below
// it, so the server's binarization reproduces the generated raster exactly.
const p5Level = 0.35

// Volume stacks are 128x128x64 = 1 Mi voxels.
const volW, volH, volD = 128, 128, 64

// The USC-SIPI surrogate sizes (MB of one-byte pixels) and classes.
var (
	smallSizesMB = []float64{0.25, 0.5, 0.75, 1.0}
	smallClasses = []string{"Aerial", "Texture", "Misc"}
)

// raster is one generated image or volume with its flood-fill oracle.
type raster struct {
	name string
	bin  *binimg.Image  // binary rasters
	gray *grayccl.Image // gray rasters
	vol  *vol3d.Volume  // volumes
	px   int64          // pixels (voxels) the server labels

	// The oracle, computed by the flood-fill reference labelers.
	want  int
	lm    *binimg.LabelMap  // 2-D rasters; dropped after warm-up
	comps []stats.Component // 2-D rasters
	sizes []int             // volumes: component voxel counts, sorted
}

// body is one encoding of a raster as a request body.
type body struct {
	r     *raster
	data  []byte
	ctype string
	level float64 // the binarization level the server applies (P5 binary)
}

// op is one request of a sync workload's rotation.
type op struct {
	typ string
	b   *body
}

// jobSet is one jobs-async client's inputs for one kind: two fresh inputs
// and the repeated one whose finished job the client keeps.
type jobSet struct {
	kind  string
	parts [3]*body
}

// inputs is everything a workload sends, generated from the seed.
type inputs struct {
	rasters []*raster
	p4      []*body    // every raw-P4 body, for the packed-decode and band probes
	ops     []op       // sync workloads: one rotation
	jobs    [][]jobSet // jobs-async: per client, per kind
	order   [][]byte   // every body in generation order, for the input digest
}

// seedFor derives a sub-seed from the workload seed and a path, so every
// generated raster depends on the seed and nothing else.
func seedFor(seed int64, path ...any) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	for _, p := range path {
		fmt.Fprintf(h, "/%v", p)
	}
	return int64(h.Sum64() >> 1)
}

// side is the square side of a raster of sizeMB one-byte pixels, the rule
// the paper tables use (1 MB = 2^20 pixels).
func side(sizeMB float64) int {
	return int(math.Round(math.Sqrt(sizeMB * (1 << 20))))
}

// genSmall builds one USC-SIPI surrogate of the given class and size.
func genSmall(class string, sizeMB float64, seed int64) *binimg.Image {
	s := side(sizeMB)
	switch class {
	case "Aerial":
		return dataset.Aerial(s, s, seed)
	case "Texture":
		return dataset.Texture(s, s, seed)
	default:
		return dataset.Misc(s, s, seed)
	}
}

// grayFrom builds a four-level gray raster from a binary one: the raster
// and its mirror image weighted 85 and 170, so equal-value regions are the
// intersections of two binary component layouts.
func grayFrom(b *binimg.Image) *grayccl.Image {
	g := grayccl.New(b.Width, b.Height)
	for y := 0; y < b.Height; y++ {
		row := b.Pix[y*b.Width : (y+1)*b.Width]
		for x, v := range row {
			g.Pix[y*b.Width+x] = 85*v + 170*row[b.Width-1-x]
		}
	}
	return g
}

// balls builds a volume of seeded overlapping balls, radii 2..9 voxels,
// about a fifth of the voxels set.
func balls(seed int64) *vol3d.Volume {
	rng := rand.New(rand.NewSource(seed))
	v := vol3d.NewVolume(volW, volH, volD)
	for i := 0; i < 220; i++ {
		r := 2 + rng.Intn(8)
		cx, cy, cz := rng.Intn(volW), rng.Intn(volH), rng.Intn(volD)
		for z := max(0, cz-r); z <= min(volD-1, cz+r); z++ {
			for y := max(0, cy-r); y <= min(volH-1, cy+r); y++ {
				for x := max(0, cx-r); x <= min(volW-1, cx+r); x++ {
					dx, dy, dz := x-cx, y-cy, z-cz
					if dx*dx+dy*dy+dz*dz <= r*r {
						v.Vox[(z*volH+y)*volW+x] = 1
					}
				}
			}
		}
	}
	return v
}

func encodeP4(img *binimg.Image) []byte {
	var buf bytes.Buffer
	if err := pnm.EncodePBM(&buf, img, true); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

// encodeP5Binary renders a binary raster as an 8-bit P5 whose values sit
// on the correct side of p5Level*255, drawn from a seeded generator.
func encodeP5Binary(img *binimg.Image, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	cut := int(math.Floor(p5Level * 255)) // values <= cut are background
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "P5\n%d %d\n255\n", img.Width, img.Height)
	for _, v := range img.Pix {
		if v != 0 {
			buf.WriteByte(byte(cut + 1 + rng.Intn(255-cut)))
		} else {
			buf.WriteByte(byte(rng.Intn(cut + 1)))
		}
	}
	return buf.Bytes()
}

func encodeGray(g *grayccl.Image) []byte {
	var buf bytes.Buffer
	if err := pnm.EncodeGrayPGM(&buf, g); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// encodeVolume writes a volume as concatenated raw-P5 frames, one per
// z-slice, object voxels 255.
func encodeVolume(v *vol3d.Volume) []byte {
	var buf bytes.Buffer
	for z := 0; z < v.D; z++ {
		fmt.Fprintf(&buf, "P5\n%d %d\n255\n", v.W, v.H)
		for _, b := range v.Vox[z*v.W*v.H : (z+1)*v.W*v.H] {
			buf.WriteByte(255 * b)
		}
	}
	return buf.Bytes()
}

const (
	ctPBM = "image/x-portable-bitmap"
	ctPGM = "image/x-portable-graymap"
)

// builder accumulates a workload's rasters and bodies.
type builder struct {
	in *inputs
}

func (bd *builder) add(r *raster) *raster {
	switch {
	case r.bin != nil:
		r.px = int64(len(r.bin.Pix))
	case r.gray != nil:
		r.px = int64(len(r.gray.Pix))
	default:
		r.px = int64(len(r.vol.Vox))
	}
	bd.in.rasters = append(bd.in.rasters, r)
	return r
}

func (bd *builder) body(r *raster, data []byte, ctype string, level float64) *body {
	b := &body{r: r, data: data, ctype: ctype, level: level}
	bd.in.order = append(bd.in.order, data)
	if ctype == ctPBM {
		bd.in.p4 = append(bd.in.p4, b)
	}
	return b
}

// generate builds a workload's inputs from its seed. Rasters are generated
// concurrently (two at a time) but bodies are assembled in a fixed order,
// so the bytes depend on the seed alone.
func generate(workload string, seed int64) (*inputs, error) {
	bd := &builder{in: &inputs{}}
	switch workload {
	case wlLarge:
		// Table III's image_1..image_3 at full size (12, 33 and 37.31 MB).
		imgs := make([]*binimg.Image, 3)
		parallel(len(imgs), func(k int) {
			i := len(imgs) - 1 - k // largest first balances the two workers
			s := side(experiments.NLCDSizesMB[i])
			imgs[i] = dataset.LandCover(s, s, max(32, s/64), 0.5, seedFor(seed, "nlcd", i))
		})
		for i, img := range imgs {
			r := bd.add(&raster{name: fmt.Sprintf("image_%d", i+1), bin: img})
			bd.in.ops = append(bd.in.ops, op{rqNoComp, bd.body(r, encodeP4(img), ctPBM, 0)})
		}
	case wlMix:
		// 12 surrogates: every class at every size, then a gray raster and
		// a volume per surrogate.
		n := len(smallSizesMB) * len(smallClasses)
		imgs := make([]*binimg.Image, n)
		vols := make([]*vol3d.Volume, n)
		parallel(n, func(i int) {
			class, mb := smallClasses[i%3], smallSizesMB[i/3]
			imgs[i] = genSmall(class, mb, seedFor(seed, "mix", class, i))
			vols[i] = balls(seedFor(seed, "mix-vol", i))
		})
		type set struct{ p4, p5, gray, vol *body }
		sets := make([]set, n)
		for i, img := range imgs {
			name := fmt.Sprintf("%s_%02d", smallClasses[i%3], i/3+1)
			r := bd.add(&raster{name: name, bin: img})
			g := bd.add(&raster{name: name + "_gray", gray: grayFrom(img)})
			v := bd.add(&raster{name: fmt.Sprintf("vol_%02d", i+1), vol: vols[i]})
			sets[i] = set{
				p4:   bd.body(r, encodeP4(img), ctPBM, 0),
				p5:   bd.body(r, encodeP5Binary(img, seedFor(seed, "mix-p5", i)), ctPGM, p5Level),
				gray: bd.body(g, encodeGray(g.gray), ctPGM, 0),
				vol:  bd.body(v, encodeVolume(vols[i]), ctPGM, 0),
			}
		}
		// Request k is type k%8 on surrogate (k/8)%12: 96 requests that
		// cover every type on every surrogate.
		for k := 0; k < len(mixOrder)*n; k++ {
			typ, s := mixOrder[k%len(mixOrder)], sets[(k/len(mixOrder))%n]
			b := s.p4
			switch typ {
			case rqLevel:
				b = s.p5
			case rqGray:
				b = s.gray
			case rqVolume:
				b = s.vol
			}
			bd.in.ops = append(bd.in.ops, op{typ, b})
		}
	case wlJobs:
		// Per client: three binary surrogates (shared by the labels,
		// contours and stats kinds, which key jobs apart), three gray
		// rasters and three volumes. Index 2 is the repeated input.
		const clients = 2
		imgs := make([]*binimg.Image, clients*3)
		vols := make([]*vol3d.Volume, clients*3)
		parallel(len(imgs), func(i int) {
			class, mb := smallClasses[i%3], smallSizesMB[i%4]
			imgs[i] = genSmall(class, mb, seedFor(seed, "jobs", class, i))
			vols[i] = balls(seedFor(seed, "jobs-vol", i))
		})
		bd.in.jobs = make([][]jobSet, clients)
		for c := 0; c < clients; c++ {
			var p4, gray, vol [3]*body
			for j := 0; j < 3; j++ {
				i := c*3 + j
				name := fmt.Sprintf("c%d_%s_%d", c, smallClasses[i%3], j)
				r := bd.add(&raster{name: name, bin: imgs[i]})
				g := bd.add(&raster{name: name + "_gray", gray: grayFrom(imgs[i])})
				v := bd.add(&raster{name: fmt.Sprintf("c%d_vol_%d", c, j), vol: vols[i]})
				p4[j] = bd.body(r, encodeP4(imgs[i]), ctPBM, 0)
				gray[j] = bd.body(g, encodeGray(g.gray), ctPGM, 0)
				vol[j] = bd.body(v, encodeVolume(vols[i]), ctPGM, 0)
			}
			for _, k := range jobKinds {
				parts := p4
				switch k {
				case "gray":
					parts = gray
				case "volume":
					parts = vol
				}
				bd.in.jobs[c] = append(bd.in.jobs[c], jobSet{kind: k, parts: parts})
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", workload, wlLarge, wlMix, wlJobs)
	}
	return bd.in, nil
}

// digest is the SHA-256 of every body a workload sends, in order.
func (in *inputs) digest() string {
	h := sha256.New()
	for _, b := range in.order {
		fmt.Fprintf(h, "%d\n", len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// computeOracles labels every raster with the flood-fill references:
// baseline.FloodFill (8-connected) for binary rasters, grayccl.FloodFill
// for gray ones and vol3d.FloodFill (26-connected) for volumes.
func (in *inputs) computeOracles() {
	parallel(len(in.rasters), func(i int) {
		r := in.rasters[i]
		switch {
		case r.bin != nil:
			r.lm, r.want = baseline.FloodFill(r.bin, baseline.Conn8)
			r.comps = stats.Components(r.lm)
		case r.gray != nil:
			r.lm, r.want = grayccl.FloodFill(r.gray)
			r.comps = stats.Components(r.lm)
		default:
			var lv *vol3d.LabelVolume
			lv, r.want = vol3d.FloodFill(r.vol, true)
			r.sizes = vol3d.ComponentSizes(lv, r.want)
			sort.Ints(r.sizes)
		}
	})
}

// dropOracleMaps releases the oracle label maps once warm-up has used them:
// the timed phases check component counts, except that a PGM answer which
// differs from its warm-up answer is checked against the oracle map in full.
func (in *inputs) dropOracleMaps() {
	keep := map[*raster]bool{}
	for _, o := range in.ops {
		if o.typ == rqPGM {
			keep[o.b.r] = true
		}
	}
	for _, r := range in.rasters {
		if !keep[r] {
			r.lm = nil
		}
	}
}

// parallel runs f(0..n-1) on two goroutines: enough to use a small host's
// CPUs, few enough that at most two full-size label-large rasters and their
// oracle label maps are being built at once.
func parallel(n int, f func(i int)) {
	const workers = 2
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
