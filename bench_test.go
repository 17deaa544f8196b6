// Benchmarks regenerating the paper's evaluation (one benchmark family per
// table/figure; see "Reproducing the paper" in README.md) plus the
// design-choice ablations. The same image specs back cmd/paperbench, which
// prints the tables in the paper's format; these benches expose the raw
// numbers to `go test -bench` tooling.
//
// Bench images are built at benchScale of the paper's sizes so the default
// sweep completes quickly; run cmd/paperbench with a larger -scale for
// paper-sized measurements.
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

const benchScale = 0.02

var (
	benchOnce    sync.Once
	benchClasses map[string][]*binimg.Image
	benchNLCD    []*binimg.Image
)

func benchImages() (map[string][]*binimg.Image, []*binimg.Image) {
	benchOnce.Do(func() {
		benchClasses = map[string][]*binimg.Image{}
		for class, specs := range experiments.SmallClasses(benchScale) {
			for _, spec := range specs {
				benchClasses[class] = append(benchClasses[class], spec.Build())
			}
		}
		for _, spec := range experiments.NLCDImages(benchScale) {
			benchNLCD = append(benchNLCD, spec.Build())
		}
	})
	return benchClasses, benchNLCD
}

// coreRun labels img into fresh buffers — the cost a one-shot caller pays —
// and returns the phase times.
func coreRun(run func(context.Context, *binimg.Image, *binimg.LabelMap, *core.Scratch, core.Options) (int, core.PhaseTimes, error), img *binimg.Image, opt core.Options) core.PhaseTimes {
	_, times, _ := run(context.Background(), img, &binimg.LabelMap{}, nil, opt)
	return times
}

// cclremsp gives core.CCLREMSP, which is never split, coreRun's shape.
func cclremsp(ctx context.Context, img *binimg.Image, lm *binimg.LabelMap, sc *core.Scratch, _ core.Options) (int, core.PhaseTimes, error) {
	return core.CCLREMSP(ctx, img, lm, sc)
}

// oneThread makes PAREMSP the sequential AREMSP and PBREMSP BREMSP.
var oneThread = core.Options{Threads: 1}

func pixels(imgs []*binimg.Image) int64 {
	var n int64
	for _, im := range imgs {
		n += int64(len(im.Pix))
	}
	return n
}

// BenchmarkTable2 regenerates Table II: the four sequential algorithms over
// each dataset class. Bytes/op-style throughput is reported as pixels/s via
// b.SetBytes (one pixel = one byte).
func BenchmarkTable2(b *testing.B) {
	classes, nlcd := benchImages()
	all := map[string][]*binimg.Image{
		"Aerial": classes["Aerial"], "Texture": classes["Texture"],
		"Misc": classes["Misc"], "NLCD": nlcd,
	}
	for _, class := range experiments.ClassOrder {
		imgs := all[class]
		for _, alg := range experiments.SequentialAlgs {
			b.Run(fmt.Sprintf("%s/%s", class, alg.Name), func(b *testing.B) {
				b.SetBytes(pixels(imgs))
				for i := 0; i < b.N; i++ {
					for _, img := range imgs {
						alg.Run(img)
					}
				}
			})
		}
	}
}

// BenchmarkTable4 regenerates Table IV: PAREMSP over each class at the
// paper's thread counts.
func BenchmarkTable4(b *testing.B) {
	classes, nlcd := benchImages()
	all := map[string][]*binimg.Image{
		"Aerial": classes["Aerial"], "Texture": classes["Texture"],
		"Misc": classes["Misc"], "NLCD": nlcd,
	}
	for _, class := range experiments.ClassOrder {
		imgs := all[class]
		for _, threads := range experiments.Table4Threads {
			b.Run(fmt.Sprintf("%s/threads=%d", class, threads), func(b *testing.B) {
				b.SetBytes(pixels(imgs))
				for i := 0; i < b.N; i++ {
					for _, img := range imgs {
						coreRun(core.PAREMSP, img, core.Options{Threads: threads})
					}
				}
			})
		}
	}
}

// BenchmarkFig4 regenerates Figure 4's underlying measurements: PAREMSP on
// the small classes across the figure's thread axis (speedup = the
// threads=0(seq) time divided by the threads=N time).
func BenchmarkFig4(b *testing.B) {
	classes, _ := benchImages()
	for _, class := range []string{"Aerial", "Misc", "Texture"} {
		imgs := classes[class]
		b.Run(fmt.Sprintf("%s/sequential", class), func(b *testing.B) {
			b.SetBytes(pixels(imgs))
			for i := 0; i < b.N; i++ {
				for _, img := range imgs {
					coreRun(core.PAREMSP, img, oneThread)
				}
			}
		})
		for _, threads := range experiments.Fig4Threads {
			b.Run(fmt.Sprintf("%s/threads=%d", class, threads), func(b *testing.B) {
				b.SetBytes(pixels(imgs))
				for i := 0; i < b.N; i++ {
					for _, img := range imgs {
						coreRun(core.PAREMSP, img, core.Options{Threads: threads})
					}
				}
			})
		}
	}
}

// BenchmarkFig5 regenerates Figure 5's underlying measurements: per NLCD
// image and thread count, the local (scan) and local+merge phase times are
// reported as custom metrics alongside the full run time.
func BenchmarkFig5(b *testing.B) {
	_, nlcd := benchImages()
	for i, img := range nlcd {
		name := fmt.Sprintf("image_%d_%.0fMB", i+1, experiments.NLCDSizesMB[i])
		for _, threads := range []int{1, 2, 6, 16, 24} {
			b.Run(fmt.Sprintf("%s/threads=%d", name, threads), func(b *testing.B) {
				b.SetBytes(int64(len(img.Pix)))
				var scanNs, mergeNs float64
				for i := 0; i < b.N; i++ {
					times := coreRun(core.PAREMSP, img, core.Options{Threads: threads})
					scanNs += float64(times.Scan.Nanoseconds())
					mergeNs += float64(times.Merge.Nanoseconds())
				}
				b.ReportMetric(scanNs/float64(b.N), "local-ns/op")
				b.ReportMetric((scanNs+mergeNs)/float64(b.N), "local+merge-ns/op")
			})
		}
	}
}

// BenchmarkAblationUnionFind holds the scan strategy fixed (pair-row) and
// varies the equivalence machinery: REMSP (the paper's choice) vs
// link-by-rank+PC vs the He rtable — isolating the union-find contribution
// claimed in Table II.
func BenchmarkAblationUnionFind(b *testing.B) {
	_, nlcd := benchImages()
	img := nlcd[len(nlcd)-1]
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
	_, nlcd := benchImages()
	img := nlcd[len(nlcd)-1]
	b.Run("pairscan", func(b *testing.B) {
		b.SetBytes(int64(len(img.Pix)))
		for i := 0; i < b.N; i++ {
			coreRun(core.PAREMSP, img, oneThread)
		}
	})
	b.Run("decisiontree", func(b *testing.B) {
		b.SetBytes(int64(len(img.Pix)))
		for i := 0; i < b.N; i++ {
			coreRun(cclremsp, img, oneThread)
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

// BenchmarkAblationMerger compares the paper's lock-based boundary MERGER
// with the lock-free CAS variant inside full PAREMSP runs.
func BenchmarkAblationMerger(b *testing.B) {
	_, nlcd := benchImages()
	img := nlcd[len(nlcd)-1]
	for _, kind := range []core.MergerKind{core.MergerLocked, core.MergerCAS} {
		b.Run(kind.String(), func(b *testing.B) {
			b.SetBytes(int64(len(img.Pix)))
			for i := 0; i < b.N; i++ {
				coreRun(core.PAREMSP, img, core.Options{Threads: 24, Merger: kind})
			}
		})
	}
}

// BenchmarkAblationRelabel compares parallel vs sequential final labeling
// passes.
func BenchmarkAblationRelabel(b *testing.B) {
	_, nlcd := benchImages()
	img := nlcd[len(nlcd)-1]
	for _, seq := range []bool{false, true} {
		name := "parallel"
		if seq {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(img.Pix)))
			for i := 0; i < b.N; i++ {
				coreRun(core.PAREMSP, img, core.Options{Threads: 24, SequentialRelabel: seq})
			}
		})
	}
}

// BenchmarkConcurrentMergers micro-benchmarks the two concurrent unions on
// the boundary-merge access pattern (pre-merged chunks, cross-seam edges).
func BenchmarkConcurrentMergers(b *testing.B) {
	const n = 1 << 16
	build := func() []unionfind.Label {
		p := make([]unionfind.Label, n)
		for i := range p {
			p[i] = unionfind.Label(i)
		}
		// Pre-merge 64-element chunks (the per-chunk scan result).
		for c := 0; c < n/64; c++ {
			for i := 1; i < 64; i++ {
				unionfind.MergeRemSP(p, unionfind.Label(c*64), unionfind.Label(c*64+i))
			}
		}
		return p
	}
	b.Run("locked", func(b *testing.B) {
		lt := unionfind.NewLockTable(0)
		p := build()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(7))
			for pb.Next() {
				x := unionfind.Label(rng.Intn(n))
				y := unionfind.Label(rng.Intn(n))
				unionfind.MergeLocked(p, lt, x, y)
			}
		})
	})
	b.Run("cas", func(b *testing.B) {
		p := build()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(7))
			for pb.Next() {
				x := unionfind.Label(rng.Intn(n))
				y := unionfind.Label(rng.Intn(n))
				unionfind.MergeCAS(p, x, y)
			}
		})
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
// bit-scan advantage) vary the most.
func BenchmarkBitScan(b *testing.B) {
	seqAlgs := []struct {
		name string
		run  func(*binimg.Image) core.PhaseTimes
	}{
		{"cclremsp", func(img *binimg.Image) core.PhaseTimes { return coreRun(cclremsp, img, oneThread) }},
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

// randomP5 is a raw 8-bit PGM of uniformly random samples.
func randomP5(rng *rand.Rand, w, h int) []byte {
	body := []byte(fmt.Sprintf("P5\n%d %d\n255\n", w, h))
	pix := make([]byte, w*h)
	rng.Read(pix)
	return append(body, pix...)
}
