package experiments

import (
	"testing"

	"repro/internal/binimg"
)

// TestImageCacheBuildsOnce: a cache builds each image on first use and
// hands the same raster to every later grid, keyed by name and
// dimensions; a nil cache builds afresh every time.
func TestImageCacheBuildsOnce(t *testing.T) {
	builds := 0
	spec := func(name string, w int) ImageSpec {
		return ImageSpec{Name: name, W: w, H: 3, Build: func() *binimg.Image {
			builds++
			return binimg.New(w, 3)
		}}
	}
	c := &ImageCache{}
	a := c.build(spec("a", 4))
	if again := c.build(spec("a", 4)); again != a || builds != 1 {
		t.Fatalf("second use built again (%d builds, same image %v)", builds, again == a)
	}
	c.build(spec("a", 5))
	c.build(spec("b", 4))
	if builds != 3 {
		t.Fatalf("%d builds for three distinct images, want 3", builds)
	}
	var none *ImageCache
	none.build(spec("a", 4))
	none.build(spec("a", 4))
	if builds != 5 {
		t.Fatalf("a nil cache built %d times for two uses, want 2", builds-3)
	}
}

// TestSpecDimsMatchBuild: every spec's dimensions are those of the image
// it builds, so Table III prints the built sizes without building.
func TestSpecDimsMatchBuild(t *testing.T) {
	for class, specs := range AllClasses(0.005) {
		for _, spec := range specs {
			if img := spec.Build(); img.Width != spec.W || img.Height != spec.H {
				t.Fatalf("%s/%s: spec says %dx%d, built %dx%d", class, spec.Name, spec.W, spec.H, img.Width, img.Height)
			}
		}
	}
}
