package pnm

import (
	"image"
	"image/color"
	"math/rand"
	"testing"
)

// TestLumaRowsMatchGray16Model checks every typed luma loop, and the
// generic fallback, against color.Gray16Model.Convert(At(x, y)) on random
// pixels: random bytes give every alpha from 0 to full, and the image's
// origin is off (0, 0), so each loop's row and column offsets are checked
// too.
func TestLumaRowsMatchGray16Model(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := image.Rect(-3, 5, 37, 19)
	palette := make(color.Palette, 200)
	for i := range palette {
		c := color.NRGBA{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))}
		if i%2 == 0 {
			palette[i] = c
		} else {
			palette[i] = color.RGBAModel.Convert(c)
		}
	}
	paletted := image.NewPaletted(r, palette)
	for i := range paletted.Pix {
		paletted.Pix[i] = uint8(rng.Intn(len(palette)))
	}
	gray, gray16 := image.NewGray(r), image.NewGray16(r)
	rgba, rgba64 := image.NewRGBA(r), image.NewRGBA64(r)
	nrgba, nrgba64 := image.NewNRGBA(r), image.NewNRGBA64(r)
	cmyk := image.NewCMYK(r)
	cases := []struct {
		name string
		img  image.Image
		pix  []uint8 // filled with random bytes
	}{
		{"Gray", gray, gray.Pix},
		{"Gray16", gray16, gray16.Pix},
		{"RGBA", rgba, rgba.Pix},
		{"RGBA64", rgba64, rgba64.Pix},
		{"NRGBA", nrgba, nrgba.Pix},
		{"NRGBA64", nrgba64, nrgba64.Pix},
		{"Paletted", paletted, nil},
		{"fallback", cmyk, cmyk.Pix},
	}
	for _, c := range cases {
		rng.Read(c.pix)
		fill := lumaRows(c.img)
		luma := make([]uint16, r.Dx())
		for y := r.Min.Y; y < r.Max.Y; y++ {
			fill(y, luma)
			for x, v := range luma {
				want := color.Gray16Model.Convert(c.img.At(r.Min.X+x, y)).(color.Gray16).Y
				if v != want {
					t.Fatalf("%s: pixel (%d, %d): luma %d, Gray16Model %d", c.name, r.Min.X+x, y, v, want)
				}
			}
		}
	}
}
