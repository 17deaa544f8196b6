package service

import (
	"cmp"
	"io"
	"math"
	"strconv"

	"repro/internal/band"
	"repro/internal/contour"
	"repro/internal/jobs"
	"repro/internal/stats"
)

// flushBytes is how much of a JSON result body bodyWriter holds before it
// hands the bytes to the response: large enough that a body takes few
// writes, small enough that no body — contours of a large image run to
// hundreds of MB — is ever held whole.
const flushBytes = 64 << 10

// bodyWriter appends a JSON result body into one buffer and writes the
// buffer out each time it passes flushBytes. After a failed write it
// discards the rest, and the list loops stop early.
type bodyWriter struct {
	w   io.Writer
	b   []byte
	err error
}

// writeResultJSON writes the JSON body of a finished result: the stream
// statistics body when res carries them, the volume summary for a volume,
// otherwise the labeling body. comps is ?components=: false leaves every
// per-component list out.
//
// The bytes are exactly what encoding/json writes for the response structs
// the tests keep as the reference — field order, omitempty rules, number
// formatting and the trailing newline — without copying the component and
// contour lists into those structs or reflecting over them. No field is a
// string, so nothing needs escaping.
func writeResultJSON(w io.Writer, kind jobs.Kind, res *jobs.Result, comps bool) error {
	bw := bodyWriter{w: w, b: make([]byte, 0, 512)}
	switch {
	case res.Stats != nil:
		bw.stats(res, comps)
	case kind == jobs.KindVolume:
		bw.volume(res, comps)
	default:
		bw.labeling(res, comps)
	}
	bw.b = append(bw.b, "}\n"...)
	bw.flush()
	return bw.err
}

// flush writes out the buffered bytes, unless a write already failed.
func (bw *bodyWriter) flush() {
	if bw.err == nil && len(bw.b) > 0 {
		_, bw.err = bw.w.Write(bw.b)
	}
	bw.b = bw.b[:0]
}

// more flushes a buffer past flushBytes and reports whether the body is
// still being written.
func (bw *bodyWriter) more() bool {
	if len(bw.b) >= flushBytes {
		bw.flush()
	}
	return bw.err == nil
}

// labeling appends a labeling's body, less its closing brace: /v1/label,
// and the result of a done labels, contours or gray job. The phases object
// appears when the kernel timed its phases, the component and contour
// lists when they are not empty.
func (bw *bodyWriter) labeling(res *jobs.Result, comps bool) {
	b := appendHead(bw.b, res.Width, res.Height, res.NumComponents, res.Density)
	if ph := res.Phases; ph.Total() > 0 {
		b = appendField(b, `,"phases":{"scan_ns":`, ph.Scan.Nanoseconds())
		b = appendField(b, `,"merge_ns":`, ph.Merge.Nanoseconds())
		b = appendField(b, `,"flatten_ns":`, ph.Flatten.Nanoseconds())
		b = appendField(b, `,"relabel_ns":`, ph.Relabel.Nanoseconds())
		b = append(b, '}')
	}
	bw.b = b
	if comps && len(res.Components) > 0 {
		bw.components(res.Components, false)
	}
	if len(res.Contours) > 0 {
		bw.contours(res.Contours)
	}
}

// stats appends the body of /v1/stats and of a done stats job, less its
// closing brace. A requested component list is present even when empty.
func (bw *bodyWriter) stats(res *jobs.Result, comps bool) {
	s := res.Stats
	var density float64
	if px := int64(s.Width) * int64(s.Height); px > 0 {
		density = float64(s.ForegroundPixels) / float64(px)
	}
	b := appendHead(bw.b, s.Width, s.Height, s.NumComponents, density)
	bw.b = appendField(b, `,"band_rows":`, int64(cmp.Or(res.BandRows, band.DefaultBandRows)))
	if comps {
		bw.components(s.Components, true)
	}
}

// volume appends the body of /v1/volume and of a done volume job, less its
// closing brace: the summary, with the per-component voxel counts when
// requested and not empty.
func (bw *bodyWriter) volume(res *jobs.Result, comps bool) {
	b := appendField(bw.b, `{"width":`, int64(res.Width))
	b = appendField(b, `,"height":`, int64(res.Height))
	b = appendField(b, `,"depth":`, int64(res.Depth))
	bw.b = appendField(b, `,"num_components":`, int64(res.NumComponents))
	if !comps || len(res.VolumeSizes) == 0 {
		return
	}
	bw.b = append(bw.b, `,"component_sizes":[`...)
	for i, n := range res.VolumeSizes {
		if i > 0 {
			bw.b = append(bw.b, ',')
		}
		bw.b = strconv.AppendInt(bw.b, int64(n), 10)
		if !bw.more() {
			return
		}
	}
	bw.b = append(bw.b, ']')
}

// components appends `,"components":[...]`, with each component's run
// count when runs is set and the count is not zero.
func (bw *bodyWriter) components(comps []stats.Component, runs bool) {
	bw.b = append(bw.b, `,"components":[`...)
	for i := range comps {
		c := &comps[i]
		b := bw.b
		if i > 0 {
			b = append(b, ',')
		}
		b = appendField(b, `{"label":`, int64(c.Label))
		b = appendField(b, `,"area":`, c.Area)
		b = appendField(b, `,"bbox":[`, int64(c.MinX))
		b = appendField(b, ",", int64(c.MinY))
		b = appendField(b, ",", int64(c.MaxX))
		b = appendField(b, ",", int64(c.MaxY))
		b = appendFloat(append(b, `],"centroid":[`...), c.CentroidX)
		b = appendFloat(append(b, ','), c.CentroidY)
		b = append(b, ']')
		if runs && c.Runs != 0 {
			b = appendField(b, `,"runs":`, c.Runs)
		}
		bw.b = append(b, '}')
		if !bw.more() {
			return
		}
	}
	bw.b = append(bw.b, ']')
}

// contours appends `,"contours":[...]`: each component's outer boundary as
// [x, y] pairs. A contour may be longer than flushBytes, so the buffer is
// checked after every point.
func (bw *bodyWriter) contours(cs []contour.Contour) {
	bw.b = append(bw.b, `,"contours":[`...)
	for i := range cs {
		if i > 0 {
			bw.b = append(bw.b, ',')
		}
		bw.b = appendField(bw.b, `{"label":`, int64(cs[i].Label))
		bw.b = append(bw.b, `,"points":[`...)
		for j, p := range cs[i].Points {
			b := bw.b
			if j > 0 {
				b = append(b, ',')
			}
			b = appendField(b, "[", int64(p.X))
			b = appendField(b, ",", int64(p.Y))
			bw.b = append(b, ']')
			if !bw.more() {
				return
			}
		}
		bw.b = append(bw.b, "]}"...)
	}
	bw.b = append(bw.b, ']')
}

// appendHead appends the opening fields a labeling and a stats body share.
func appendHead(b []byte, w, h, n int, density float64) []byte {
	b = appendField(b, `{"width":`, int64(w))
	b = appendField(b, `,"height":`, int64(h))
	b = appendField(b, `,"num_components":`, int64(n))
	return appendFloat(append(b, `,"density":`...), density)
}

// appendField appends prefix, then v in decimal.
func appendField(b []byte, prefix string, v int64) []byte {
	return strconv.AppendInt(append(b, prefix...), v, 10)
}

// appendFloat appends a finite f as encoding/json does: the shortest
// decimal that round-trips, in 'f' form, or in 'e' form below 1e-6 or at
// or above 1e21 with a one-digit negative exponent unpadded (1e-7, not
// 1e-07). A whole number below 2^53 is its integer digits, so it skips the
// float formatter. Every float a body carries is finite: densities and
// centroids divide by a positive count.
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	switch {
	case abs < 1<<53 && f == math.Trunc(f) && (f != 0 || !math.Signbit(f)):
		return strconv.AppendInt(b, int64(f), 10)
	case abs != 0 && (abs < 1e-6 || abs >= 1e21):
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}
