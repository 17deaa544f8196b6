// Land-cover region analysis: the NLCD workload class of the paper's
// scaling experiments. A large synthetic land-cover raster is labeled with
// PAREMSP at several thread counts, demonstrating the speedup behaviour of
// Figure 5 and a region-size analysis of the result.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	paremsp "repro"
	"repro/internal/dataset"
)

func main() {
	// ~48 MB of raster: big enough that parallel scan dominates overheads.
	const w, h = 7168, 7168
	fmt.Printf("generating %dx%d land-cover raster (%.1f MB)...\n", w, h, float64(w*h)/(1<<20))
	img := dataset.LandCover(w, h, 160, 0.5, 2026)
	fmt.Printf("foreground density %.3f\n\n", img.Density())

	maxThreads := runtime.GOMAXPROCS(0)
	var seqTime time.Duration
	fmt.Println("threads  total      scan       merge     speedup(total)  speedup(scan)")
	var seqScan time.Duration
	for threads := 1; threads <= maxThreads; threads *= 2 {
		res, err := paremsp.Label(img, paremsp.Options{Threads: threads})
		if err != nil {
			log.Fatal(err)
		}
		total := res.Phases.Total()
		if threads == 1 {
			seqTime = total
			seqScan = res.Phases.Scan
		}
		fmt.Printf("%7d  %-9v  %-9v  %-8v  %-14.2f  %.2f\n",
			threads, total.Round(time.Millisecond), res.Phases.Scan.Round(time.Millisecond),
			res.Phases.Merge.Round(time.Millisecond),
			seqTime.Seconds()/total.Seconds(), seqScan.Seconds()/res.Phases.Scan.Seconds())
	}

	res, err := paremsp.Label(img, paremsp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	comps := paremsp.ComponentsOf(res.Labels)

	// Region-size report: how much of the land cover sits in large regions?
	var large, total, largest int64
	for _, c := range comps {
		total += c.Area
		if c.Area >= 10000 {
			large += c.Area
		}
		if c.Area > largest {
			largest = c.Area
		}
	}
	fmt.Printf("\n%d regions; largest covers %.1f%% of the foreground; regions >= 10k px cover %.1f%%\n",
		len(comps), 100*float64(largest)/float64(total), 100*float64(large)/float64(total))
}
