// Benchmarks of the library's kernels and ingest paths for `go test
// -bench`: the design-choice ablations (union-find and scan strategy on the
// largest NLCD surrogate), buffer reuse, the bit-packed scans, PNM ingest
// and the component fold. The paper's Tables II and IV and Figures 4 and 5
// are not benchmarks here: cmd/paperbench -exp measures them through the
// experiment grid (internal/experiments.RunGrid), whose rows are what a
// BENCH_*.json report holds; see "Reproducing the paper" in README.md.
package paremsp_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	paremsp "repro"
	"repro/internal/baseline"
	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/grayccl"
	"repro/internal/pnm"
	"repro/internal/scan"
	"repro/internal/unionfind"
	"repro/internal/vol3d"
)

// benchNLCD is the largest NLCD surrogate at 2% of the paper's size, the
// image the ablations label.
var benchNLCD = sync.OnceValue(func() *binimg.Image {
	specs := experiments.NLCDImages(0.02)
	return specs[len(specs)-1].Build()
})

// coreRun labels img into fresh buffers — the cost a one-shot caller pays —
// and returns the phase times.
func coreRun(run func(context.Context, *binimg.Image, *binimg.LabelMap, *core.Scratch, core.Options) (int, core.PhaseTimes, error), img *binimg.Image, opt core.Options) core.PhaseTimes {
	_, times, _ := run(context.Background(), img, &binimg.LabelMap{}, nil, opt)
	return times
}

// oneThread makes PAREMSP the sequential AREMSP and PBREMSP BREMSP.
var oneThread = core.Options{Threads: 1}

// BenchmarkAblationUnionFind holds the scan strategy fixed (pair-row) and
// varies the equivalence machinery: REMSP (the paper's choice) vs
// link-by-rank+PC vs the He rtable — isolating the union-find contribution
// claimed in Table II.
func BenchmarkAblationUnionFind(b *testing.B) {
	img := benchNLCD()
	b.Run("pairscan/remsp", func(b *testing.B) {
		b.SetBytes(int64(len(img.Pix)))
		for i := 0; i < b.N; i++ {
			coreRun(core.PAREMSP, img, oneThread)
		}
	})
	b.Run("pairscan/rankpc", func(b *testing.B) {
		b.SetBytes(int64(len(img.Pix)))
		for i := 0; i < b.N; i++ {
			lm := binimg.NewLabelMap(img.Width, img.Height)
			sink := baseline.NewRankPCSink(scan.MaxProvisionalLabels(img.Width, img.Height))
			scan.PairRows(img, lm, sink, 0, img.Height, nil)
			sink.Flatten()
			for j, v := range lm.L {
				if v != 0 {
					lm.L[j] = sink.Lookup(v)
				}
			}
		}
	})
	b.Run("pairscan/hetable", func(b *testing.B) {
		b.SetBytes(int64(len(img.Pix)))
		for i := 0; i < b.N; i++ {
			baseline.ARUN(img)
		}
	})
}

// BenchmarkAblationScan holds the union-find fixed (REMSP) and varies the
// scan strategy: pair-row (AREMSP) vs decision tree (CCLREMSP) vs the
// classic all-neighbor scan — isolating the scan contribution.
func BenchmarkAblationScan(b *testing.B) {
	img := benchNLCD()
	b.Run("pairscan", func(b *testing.B) {
		b.SetBytes(int64(len(img.Pix)))
		for i := 0; i < b.N; i++ {
			coreRun(core.PAREMSP, img, oneThread)
		}
	})
	b.Run("decisiontree", func(b *testing.B) {
		b.SetBytes(int64(len(img.Pix)))
		for i := 0; i < b.N; i++ {
			coreRun(core.CCLREMSP, img, oneThread)
		}
	})
	b.Run("allneighbors", func(b *testing.B) {
		b.SetBytes(int64(len(img.Pix)))
		for i := 0; i < b.N; i++ {
			lm := binimg.NewLabelMap(img.Width, img.Height)
			sink := core.NewRemSink(scan.MaxProvisionalLabels(img.Width, img.Height))
			scan.AllNeighbors8(img, lm, sink, 0, img.Height)
			unionfind.Flatten(sink.Parents(), 1, sink.Count(), 0)
			p := sink.Parents()
			for j, v := range lm.L {
				if v != 0 {
					lm.L[j] = p[v]
				}
			}
		}
	})
}

// BenchmarkDatasetGenerators tracks generator cost (they bound how large a
// -scale the paperbench sweep can use).
func BenchmarkDatasetGenerators(b *testing.B) {
	const w, h = 512, 512
	gens := map[string]func() *binimg.Image{
		"noise":      func() *binimg.Image { return dataset.UniformNoise(w, h, 0.5, 1) },
		"landcover":  func() *binimg.Image { return dataset.LandCover(w, h, 64, 0.5, 1) },
		"aerial":     func() *binimg.Image { return dataset.Aerial(w, h, 1) },
		"texture":    func() *binimg.Image { return dataset.Texture(w, h, 1) },
		"misc":       func() *binimg.Image { return dataset.Misc(w, h, 1) },
		"serpentine": func() *binimg.Image { return dataset.Serpentine(w, h, 2, 3) },
	}
	for name, gen := range gens {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(w * h)
			for i := 0; i < b.N; i++ {
				gen()
			}
		})
	}
}

// BenchmarkLabelInto compares the allocating Label entry point against the
// buffer-reusing LabelInto on a 1024x1024 landcover image (PAREMSP, 4
// threads). Label pays for the 4 MiB label raster, the ~2 MiB parent array
// and the 128 KiB merger lock table on every call — measured at ~5.4 MB/op
// (29 allocs/op) — while LabelInto retains all three across calls and
// amortizes to ~28 KB/op (24 allocs/op, the residue being per-call goroutine
// and closure overhead): a ~190x reduction in allocated bytes per request,
// which is what lets the service layer's pooled engine label sustained
// traffic without per-request raster allocation.
func BenchmarkLabelInto(b *testing.B) {
	img := dataset.LandCover(1024, 1024, 32, 0.5, 1)
	opt := paremsp.Options{Threads: 4}
	b.Run("label", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(img.Pix)))
		for i := 0; i < b.N; i++ {
			if _, err := paremsp.Label(img, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("labelinto", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(img.Pix)))
		dst := &paremsp.LabelMap{}
		sc := &paremsp.Scratch{}
		for i := 0; i < b.N; i++ {
			if _, err := paremsp.LabelInto(img, dst, sc, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBitScan compares the byte-per-pixel scans against the bit-packed
// word-parallel run-scan pipeline. The landcover raster is the mid-density
// (~0.5) regime of the paper's NLCD class; the noise sweep covers the density
// classes from nearly-empty to nearly-full, where run lengths (and so the
// bit-scan advantage) vary the most. The paremsp-packed rows time what an
// unpinned binary request runs: the run kernel with the rank pass that
// gives PAREMSP's numbering, over an already-packed bitmap and into reused
// buffers, as the service's pools hand them out.
func BenchmarkBitScan(b *testing.B) {
	seqAlgs := []struct {
		name string
		run  func(*binimg.Image) core.PhaseTimes
	}{
		{"cclremsp", func(img *binimg.Image) core.PhaseTimes { return coreRun(core.CCLREMSP, img, oneThread) }},
		{"aremsp", func(img *binimg.Image) core.PhaseTimes { return coreRun(core.PAREMSP, img, oneThread) }},
		{"bremsp", func(img *binimg.Image) core.PhaseTimes { return coreRun(core.PBREMSP, img, oneThread) }},
	}
	land := dataset.LandCover(1024, 1024, 32, 0.5, 1)
	for _, alg := range seqAlgs {
		b.Run("landcover1024/"+alg.name, func(b *testing.B) {
			b.SetBytes(int64(len(land.Pix)))
			for i := 0; i < b.N; i++ {
				alg.run(land)
			}
		})
	}
	for _, density := range []float64{0.01, 0.10, 0.50, 0.90, 0.99} {
		img := dataset.UniformNoise(1024, 512, density, 9)
		for _, alg := range seqAlgs {
			b.Run(fmt.Sprintf("noise/density=%.2f/%s", density, alg.name), func(b *testing.B) {
				b.SetBytes(int64(len(img.Pix)))
				for i := 0; i < b.N; i++ {
					alg.run(img)
				}
			})
		}
	}
	for _, threads := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("landcover1024/paremsp/threads=%d", threads), func(b *testing.B) {
			b.SetBytes(int64(len(land.Pix)))
			for i := 0; i < b.N; i++ {
				coreRun(core.PAREMSP, land, core.Options{Threads: threads})
			}
		})
		b.Run(fmt.Sprintf("landcover1024/pbremsp/threads=%d", threads), func(b *testing.B) {
			b.SetBytes(int64(len(land.Pix)))
			for i := 0; i < b.N; i++ {
				coreRun(core.PBREMSP, land, core.Options{Threads: threads})
			}
		})
		b.Run(fmt.Sprintf("landcover1024/paremsp-packed/threads=%d", threads), func(b *testing.B) {
			bm := &binimg.Bitmap{}
			bm.FromImage(land)
			lm, sc := &binimg.LabelMap{}, &core.Scratch{}
			b.SetBytes(int64(len(land.Pix)))
			for i := 0; i < b.N; i++ {
				core.PAREMSPBitmap(context.Background(), bm, lm, sc, core.Options{Threads: threads})
			}
		})
	}
}

// BenchmarkBitScanPhases isolates the scan phase the paper's Fig. 5a plots
// ("local" speedup): PBREMSP's packed run scan against PAREMSP's pair-row
// byte scan at equal thread counts, reported via PhaseTimes.
func BenchmarkBitScanPhases(b *testing.B) {
	img := dataset.LandCover(1024, 1024, 32, 0.5, 1)
	for _, threads := range []int{1, 4} {
		b.Run(fmt.Sprintf("paremsp/threads=%d", threads), func(b *testing.B) {
			b.SetBytes(int64(len(img.Pix)))
			var scanNs float64
			for i := 0; i < b.N; i++ {
				times := coreRun(core.PAREMSP, img, core.Options{Threads: threads})
				scanNs += float64(times.Scan.Nanoseconds())
			}
			b.ReportMetric(scanNs/float64(b.N), "local-ns/op")
		})
		b.Run(fmt.Sprintf("pbremsp/threads=%d", threads), func(b *testing.B) {
			b.SetBytes(int64(len(img.Pix)))
			var scanNs float64
			for i := 0; i < b.N; i++ {
				times := coreRun(core.PBREMSP, img, core.Options{Threads: threads})
				scanNs += float64(times.Scan.Nanoseconds())
			}
			b.ReportMetric(scanNs/float64(b.N), "local-ns/op")
		})
	}
}

// BenchmarkPNMIngest times every table-driven raw decode path feeding the
// service, each on 1 Mpx into a reused destination: raw PBM unpacked to a
// byte raster (p4-bytes, pnm.DecodeInto) and copied packed-to-packed
// (p4-bitmap, pnm.DecodePBMBitmapInto); random 8-bit P5 binarized at
// level 0.35 (p5-binary) and kept gray (p5-gray); and 64 such 128x128
// frames as a volume.
func BenchmarkPNMIngest(b *testing.B) {
	img := dataset.LandCover(1024, 1024, 32, 0.5, 1)
	var buf bytes.Buffer
	if err := pnm.EncodePBM(&buf, img, true); err != nil {
		b.Fatal(err)
	}
	p4 := buf.Bytes()
	rng := rand.New(rand.NewSource(1))
	p5 := randomP5(rng, 1024, 1024)
	var vol []byte
	for z := 0; z < 64; z++ {
		vol = append(vol, randomP5(rng, 128, 128)...)
	}
	run := func(name string, body []byte, decode func(r *bytes.Reader) error) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if err := decode(bytes.NewReader(body)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	im, bm, gray, v := &binimg.Image{}, &binimg.Bitmap{}, &grayccl.Image{}, &vol3d.Volume{}
	run("p4-bytes", p4, func(r *bytes.Reader) error { return pnm.DecodeInto(r, 0.5, im) })
	run("p4-bitmap", p4, func(r *bytes.Reader) error { return pnm.DecodePBMBitmapInto(r, bm) })
	run("p5-binary", p5, func(r *bytes.Reader) error { return pnm.DecodeInto(r, 0.35, im) })
	run("p5-gray", p5, func(r *bytes.Reader) error { return pnm.DecodeGrayInto(r, gray) })
	run("volume", vol, func(r *bytes.Reader) error { return pnm.DecodeVolumeInto(r, 0.5, v) })
}

// BenchmarkComponents times ComponentsOf, the per-run fold behind every
// JSON component list, on the 1 MB surrogate of each label-small-mix class
// labeled as a binary image and as the gray raster that workload sends
// (the image and its mirror weighted 85 and 170), and on a 1-px
// checkerboard, whose single-pixel runs are the fold's worst case.
func BenchmarkComponents(b *testing.B) {
	const side = 1024
	type labeled struct {
		name string
		lm   *paremsp.LabelMap
	}
	var maps []labeled
	for _, c := range []struct {
		class string
		gen   func(w, h int, seed int64) *binimg.Image
	}{{"Aerial", dataset.Aerial}, {"Texture", dataset.Texture}, {"Misc", dataset.Misc}} {
		img := c.gen(side, side, 1)
		res, err := paremsp.Label(img, paremsp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		gray := paremsp.NewGrayImage(side, side)
		for i, v := range img.Pix {
			gray.Pix[i] = 85*v + 170*img.Pix[i-i%side+side-1-i%side]
		}
		glm, _ := paremsp.LabelGray(gray)
		maps = append(maps, labeled{c.class + "/binary", res.Labels}, labeled{c.class + "/gray", glm})
	}
	res, err := paremsp.Label(dataset.Checkerboard(side, side, 1), paremsp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	maps = append(maps, labeled{"checker-1px", res.Labels})
	for _, m := range maps {
		b.Run(m.name, func(b *testing.B) {
			b.SetBytes(int64(len(m.lm.L)))
			for i := 0; i < b.N; i++ {
				componentsSink = paremsp.ComponentsOf(m.lm)
			}
		})
	}
}

// componentsSink keeps BenchmarkComponents' calls from being optimized away.
var componentsSink []paremsp.Component

// randomP5 is a raw 8-bit PGM of uniformly random samples.
func randomP5(rng *rand.Rand, w, h int) []byte {
	body := []byte(fmt.Sprintf("P5\n%d %d\n255\n", w, h))
	pix := make([]byte, w*h)
	rng.Read(pix)
	return append(body, pix...)
}
