package paremsp_test

import (
	"context"
	"testing"

	paremsp "repro"
	"repro/internal/binimg"
	"repro/internal/grayccl"
	"repro/internal/stats"
	"repro/internal/vol3d"
)

// FuzzExtensionsAgainstFloodFill decodes arbitrary bytes into a gray image
// and a binary volume and checks the gray and volume entry points, at one
// and three threads, against their flood-fill oracles. The first byte sets
// the width, the second the volume's height, the rest are pixels (gray
// levels 0-3, voxels bit 0). The seed corpus runs as part of `go test`;
// `go test -fuzz=FuzzExtensionsAgainstFloodFill .` explores further.
func FuzzExtensionsAgainstFloodFill(f *testing.F) {
	f.Add([]byte{3, 2, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2, 3, 3})
	f.Add([]byte{1, 1, 1, 1, 1, 1})
	f.Add([]byte{8, 3, 0xFF, 0x00, 0xAA, 0x55, 0x0F, 0xF0, 0x33, 0xCC, 0x01, 0x80})
	f.Add([]byte{5, 7})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		w, vh := int(data[0])%16+1, int(data[1])%8+1
		body := data[2:]
		if len(body) > 16*64 {
			body = body[:16*64]
		}
		ctx := context.Background()

		img := paremsp.NewGrayImage(w, (len(body)+w-1)/w)
		for i, b := range body {
			img.Pix[i] = b & 3
		}
		ref, nRef := grayccl.FloodFill(img)
		for _, threads := range []int{1, 3} {
			res, err := paremsp.LabelGrayIntoCtx(ctx, img, nil, nil, paremsp.Options{Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			if res.NumComponents != nRef {
				t.Fatalf("gray threads=%d: %d components, oracle %d", threads, res.NumComponents, nRef)
			}
			if err := stats.Equivalent(res.Labels, ref); err != nil {
				t.Fatalf("gray threads=%d: %v", threads, err)
			}
		}

		vol := paremsp.NewVolume(w, vh, (len(body)+w*vh-1)/(w*vh))
		for i, b := range body {
			vol.Vox[i] = b & 1
		}
		vref, vnRef := vol3d.FloodFill(vol, true)
		for _, threads := range []int{1, 3} {
			res, err := paremsp.LabelVolumeIntoCtx(ctx, vol, nil, nil, paremsp.Options{Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			if res.NumComponents != vnRef {
				t.Fatalf("volume threads=%d: %d components, oracle %d", threads, res.NumComponents, vnRef)
			}
			// A volume is a stack of w x h planes; compare it as one tall map.
			got := &binimg.LabelMap{Width: w, Height: vh * vol.D, L: res.Labels.L}
			want := &binimg.LabelMap{Width: w, Height: vh * vol.D, L: vref.L}
			if err := stats.Equivalent(got, want); err != nil {
				t.Fatalf("volume threads=%d: %v", threads, err)
			}
		}
	})
}
