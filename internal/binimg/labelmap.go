package binimg

import (
	"fmt"
	"strings"
)

// Label is the provisional/final label type used throughout the repository.
// int32 keeps the parent array and the label raster cache-compact; the paper's
// largest image (465.2 MB = 487,784,448 pixels) still fits: the parallel label
// space is bounded by pixel count, well below MaxInt32.
type Label = int32

// LabelMap is an integer raster of the same shape as an Image. L[y*Width+x]
// holds the label of pixel (x, y); 0 means background.
type LabelMap struct {
	Width  int
	Height int
	L      []Label
}

// NewLabelMap returns a zeroed label map of the given dimensions.
func NewLabelMap(width, height int) *LabelMap {
	if width < 0 || height < 0 {
		panic(fmt.Sprintf("binimg: negative dimensions %dx%d", width, height))
	}
	return &LabelMap{Width: width, Height: height, L: make([]Label, width*height)}
}

// Reset reshapes the label map to width x height and zeroes every label,
// reusing the existing buffer when it has capacity. The labelers' *Into entry
// points call this, so pooled label maps are reusable across differently
// sized requests. It panics if either dimension is negative.
func (lm *LabelMap) Reset(width, height int) {
	reused := cap(lm.L) >= width*height
	lm.Reshape(width, height)
	if reused {
		clear(lm.L)
	}
}

// Reshape is Reset without the zeroing: a reused buffer keeps whatever
// labels it held, so every label is undefined until written. It suits a
// caller that writes every label before reading any, or reads only the
// labels it wrote. It panics if either dimension is negative.
func (lm *LabelMap) Reshape(width, height int) {
	if width < 0 || height < 0 {
		panic(fmt.Sprintf("binimg: negative dimensions %dx%d", width, height))
	}
	n := width * height
	if cap(lm.L) < n {
		lm.L = make([]Label, n)
	} else {
		lm.L = lm.L[:n]
	}
	lm.Width, lm.Height = width, height
}

// At returns the label at (x, y). It panics on out-of-range coordinates.
func (lm *LabelMap) At(x, y int) Label {
	if x < 0 || x >= lm.Width || y < 0 || y >= lm.Height {
		panic(fmt.Sprintf("binimg: LabelMap.At(%d,%d) out of range %dx%d", x, y, lm.Width, lm.Height))
	}
	return lm.L[y*lm.Width+x]
}

// Set writes the label at (x, y). It panics on out-of-range coordinates.
func (lm *LabelMap) Set(x, y int, v Label) {
	if x < 0 || x >= lm.Width || y < 0 || y >= lm.Height {
		panic(fmt.Sprintf("binimg: LabelMap.Set(%d,%d) out of range %dx%d", x, y, lm.Width, lm.Height))
	}
	lm.L[y*lm.Width+x] = v
}

// Clone returns a deep copy of the label map.
func (lm *LabelMap) Clone() *LabelMap {
	l := make([]Label, len(lm.L))
	copy(l, lm.L)
	return &LabelMap{Width: lm.Width, Height: lm.Height, L: l}
}

// Max returns the largest label present in the map (0 for an all-background
// map).
func (lm *LabelMap) Max() Label {
	var max Label
	for _, v := range lm.L {
		if v > max {
			max = v
		}
	}
	return max
}

// Distinct returns the number of distinct non-zero labels present.
func (lm *LabelMap) Distinct() int {
	seen := make(map[Label]struct{})
	for _, v := range lm.L {
		if v != 0 {
			seen[v] = struct{}{}
		}
	}
	return len(seen)
}

// Mask returns the binary image whose foreground is exactly the non-zero
// labels of the map. Labeling an image and masking the result must return
// the original image; tests rely on this round trip.
func (lm *LabelMap) Mask() *Image {
	im := New(lm.Width, lm.Height)
	for i, v := range lm.L {
		if v != 0 {
			im.Pix[i] = 1
		}
	}
	return im
}

// String renders small label maps for test failure messages: background as
// '.', labels 1..9 as digits, 10..35 as 'a'..'z', larger labels as '+'.
func (lm *LabelMap) String() string {
	var b strings.Builder
	for y := 0; y < lm.Height; y++ {
		for x := 0; x < lm.Width; x++ {
			v := lm.L[y*lm.Width+x]
			switch {
			case v == 0:
				b.WriteByte('.')
			case v <= 9:
				b.WriteByte(byte('0' + v))
			case v <= 35:
				b.WriteByte(byte('a' + v - 10))
			default:
				b.WriteByte('+')
			}
		}
		if y != lm.Height-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
