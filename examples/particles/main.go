// Particle analysis: the medical-imaging / automated-inspection workload the
// paper's introduction motivates. A synthetic micrograph of cell-like blobs
// is labeled, then the component statistics drive a size-distribution report
// and an outlier screen — the kind of downstream analysis CCL feeds.
package main

import (
	"fmt"
	"log"
	"slices"
	"sort"
	"time"

	paremsp "repro"
	"repro/internal/dataset"
)

func main() {
	const w, h = 1024, 768
	img := dataset.Blobs(w, h, 120, 3, 14, 42)

	start := time.Now()
	res, err := paremsp.Label(img, paremsp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	comps := paremsp.ComponentsOf(res.Labels)
	fmt.Printf("micrograph %dx%d: %d particles labeled in %v\n", w, h, len(comps), elapsed)
	fmt.Printf("phases: scan %v, merge %v, flatten %v, relabel %v\n\n",
		res.Phases.Scan, res.Phases.Merge, res.Phases.Flatten, res.Phases.Relabel)

	// Size distribution.
	areas := make([]int64, len(comps))
	var total int64
	for i, c := range comps {
		areas[i] = c.Area
		total += c.Area
	}
	slices.Sort(areas)
	fmt.Printf("particle areas: min %d, median %d, max %d, mean %.1f px\n",
		areas[0], areas[len(areas)/2], areas[len(areas)-1], float64(total)/float64(len(areas)))

	// Outlier screen: merged clusters show up as area or extent outliers.
	medianArea := areas[len(areas)/2]
	fmt.Println("\nflagged particles (area > 3x median, or sprawling bbox):")
	flagged := 0
	for _, c := range comps {
		if c.Area > 3*medianArea || (c.Extent() < 0.5 && c.Area > medianArea) {
			fmt.Printf("  label %4d: area %5d, bbox %3dx%-3d, extent %.2f at (%.0f, %.0f)\n",
				c.Label, c.Area, c.Width(), c.Height(), c.Extent(), c.CentroidX, c.CentroidY)
			flagged++
		}
	}
	if flagged == 0 {
		fmt.Println("  none")
	}

	// Density histogram by power-of-two area buckets.
	fmt.Println("\narea histogram (2^k buckets):")
	hist := map[int]int{}
	for _, a := range areas {
		k := 0
		for v := a; v > 1; v >>= 1 {
			k++
		}
		hist[k]++
	}
	keys := make([]int, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		fmt.Printf("  area %4d..%-4d: %s (%d)\n", 1<<k, 1<<(k+1)-1, bar(hist[k]), hist[k])
	}
}

func bar(n int) string {
	if n > 60 {
		n = 60
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}
