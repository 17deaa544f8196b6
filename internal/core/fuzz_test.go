package core_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/binimg"
	"repro/internal/stats"
)

// FuzzLabelersAgainstFloodFill decodes arbitrary bytes into an image (width
// from the first byte, pixels from the rest) and checks all three core
// algorithms against the flood-fill oracle. The seed corpus runs as part of
// `go test`; `go test -fuzz=FuzzLabelersAgainstFloodFill ./internal/core`
// explores further.
func FuzzLabelersAgainstFloodFill(f *testing.F) {
	f.Add([]byte{3, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{1, 1, 1, 1})
	f.Add([]byte{8, 0xFF, 0x00, 0xAA, 0x55})
	f.Add([]byte{5})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		w := int(data[0])%32 + 1
		body := data[1:]
		if len(body) > 32*32 {
			body = body[:32*32]
		}
		h := (len(body) + w - 1) / w
		if h == 0 {
			return
		}
		img := binimg.New(w, h)
		for i := range body {
			img.Pix[i] = body[i] & 1
		}
		ref, nRef := baseline.FloodFill(img, baseline.Conn8)
		for name, run := range map[string]func(*binimg.Image) (*binimg.LabelMap, int){
			"AREMSP":   aremsp,
			"CCLREMSP": cclremsp,
			"PAREMSP3": func(im *binimg.Image) (*binimg.LabelMap, int) { return paremsp(im, 3) },
		} {
			lm, n := run(img)
			if n != nRef {
				t.Fatalf("%s: %d components, oracle %d\n%s", name, n, nRef, img)
			}
			if err := stats.Equivalent(lm, ref); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, img)
			}
		}
	})
}
