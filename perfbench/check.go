package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/binimg"
	"repro/internal/contour"
	"repro/internal/stats"
	"repro/internal/stream"
)

// Wire forms of ccserve's JSON responses (the fields the checks read, plus
// what the traced replay's writer emits, so both encode the same shape).
type componentJSON struct {
	Label    int32      `json:"label"`
	Area     int64      `json:"area"`
	BBox     [4]int     `json:"bbox"`
	Centroid [2]float64 `json:"centroid"`
	Runs     int64      `json:"runs,omitempty"`
}

type contourJSON struct {
	Label  int32    `json:"label"`
	Points [][2]int `json:"points"`
}

type phasesJSON struct {
	ScanNs    int64 `json:"scan_ns"`
	MergeNs   int64 `json:"merge_ns"`
	FlattenNs int64 `json:"flatten_ns"`
	RelabelNs int64 `json:"relabel_ns"`
}

// resultJSON covers the label, stats and volume response bodies.
type resultJSON struct {
	Width          int             `json:"width"`
	Height         int             `json:"height"`
	Depth          int             `json:"depth,omitempty"`
	NumComponents  int             `json:"num_components"`
	Density        float64         `json:"density,omitempty"`
	BandRows       int             `json:"band_rows,omitempty"`
	Phases         *phasesJSON     `json:"phases,omitempty"`
	Components     []componentJSON `json:"components,omitempty"`
	Contours       []contourJSON   `json:"contours,omitempty"`
	ComponentSizes []int           `json:"component_sizes,omitempty"`
}

var (
	keyNumComponents = []byte(`"num_components":`)
	keyLabel         = []byte(`{"label":`)
)

// jsonCount reads num_components from a JSON response without decoding
// the rest, which for textured images is megabytes of component records.
func jsonCount(data []byte) (int, error) {
	i := bytes.Index(data, keyNumComponents)
	if i < 0 {
		return 0, fmt.Errorf("no num_components in response %.80q", data)
	}
	rest := data[i+len(keyNumComponents):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	return strconv.Atoi(string(rest[:j]))
}

// quickCheck is the per-response check of the timed phases: the component
// count must match the oracle's. JSON bodies must also carry one record per
// component in each list they include; CCL1 carries the count in its
// header. A PGM label map has no count (its palette wraps every 192
// labels), so it must equal the warm-up response byte for byte, and is
// checked in full against the oracle when it does not.
func quickCheck(typ string, b *body, data []byte, ref []byte) error {
	want := b.r.want
	switch typ {
	case rqCCL:
		if len(data) < 16 || string(data[:4]) != stream.Magic {
			return fmt.Errorf("not a CCL1 stream")
		}
		if n := int(binary.LittleEndian.Uint32(data[12:])); n != want {
			return fmt.Errorf("%d components, oracle %d", n, want)
		}
		if len(data) != 16+4*int(b.r.px) {
			return fmt.Errorf("CCL1 stream is %d bytes, want %d", len(data), 16+4*b.r.px)
		}
		return nil
	case rqPGM:
		if bytes.Equal(data, ref) {
			return nil
		}
		return fullCheck(typ, b, data)
	}
	n, err := jsonCount(data)
	if err != nil {
		return err
	}
	if n != want {
		return fmt.Errorf("%d components, oracle %d", n, want)
	}
	lists := 0
	switch typ {
	case rqJSON, rqLevel, rqGray, rqStats, "labels": // job kinds gray and stats share the names
		lists = 1
	case rqContours: // and the contours job kind
		lists = 2 // components and contours
	}
	if got := bytes.Count(data, keyLabel); got != lists*want {
		return fmt.Errorf("%d component/contour records, want %d", got, lists*want)
	}
	return nil
}

// fullCheck is the warm-up check: the response must describe the same
// partition as the flood-fill oracle. CCL1 label maps are read back and
// compared with stats.Equivalent; PGM label maps must put each oracle
// component in one gray value and leave the background 0; JSON component
// lists must match the oracle's components (area, bounding box, centroid),
// contours must match contour.TraceAll on the oracle labeling, and volume
// summaries must match the oracle's component sizes.
func fullCheck(typ string, b *body, data []byte) error {
	r := b.r
	switch typ {
	case rqCCL:
		lm, n, err := stream.ReadLabels(bytes.NewReader(data))
		if err != nil {
			return err
		}
		if n != r.want {
			return fmt.Errorf("%d components, oracle %d", n, r.want)
		}
		return stats.Equivalent(r.lm, lm)
	case rqPGM:
		return checkPGM(r, data)
	}
	var res resultJSON
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("decoding response: %v", err)
	}
	if res.NumComponents != r.want {
		return fmt.Errorf("%d components, oracle %d", res.NumComponents, r.want)
	}
	if r.vol != nil {
		got := append([]int(nil), res.ComponentSizes...)
		sort.Ints(got)
		if fmt.Sprint(got) != fmt.Sprint(r.sizes) {
			return fmt.Errorf("component sizes differ from the oracle's")
		}
		return nil
	}
	if typ == rqNoComp {
		return nil
	}
	if err := sameComponents(res.Components, r.comps); err != nil {
		return err
	}
	if typ == rqContours {
		return sameContours(res.Contours, r.lm, r.want)
	}
	return nil
}

// sameComponents compares component records as multisets of (area,
// bounding box, centroid); the server and the oracle number components
// differently. Centroids are integer coordinate sums over the area, so
// they agree to the bit however the sums were accumulated.
func sameComponents(got []componentJSON, want []stats.Component) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d component records, oracle %d", len(got), len(want))
	}
	key := func(area int64, bb [4]int, cen [2]float64) string { return fmt.Sprint(area, bb, cen) }
	count := make(map[string]int, len(want))
	for _, c := range want {
		count[key(int64(c.Area), [4]int{c.MinX, c.MinY, c.MaxX, c.MaxY}, [2]float64{c.CentroidX, c.CentroidY})]++
	}
	for _, c := range got {
		k := key(c.Area, c.BBox, c.Centroid)
		if count[k] == 0 {
			return fmt.Errorf("component %d (area %d, bbox %v, centroid %v) is not in the oracle", c.Label, c.Area, c.BBox, c.Centroid)
		}
		count[k]--
	}
	return nil
}

// sameContours compares boundary polylines with the oracle labeling's,
// keyed by their first point (each trace starts at its component's first
// pixel in raster order).
func sameContours(got []contourJSON, lm *binimg.LabelMap, n int) error {
	want := contour.TraceAll(lm, n)
	if len(got) != len(want) {
		return fmt.Errorf("%d contours, oracle %d", len(got), len(want))
	}
	byStart := make(map[[2]int][]contour.Point, len(want))
	for _, c := range want {
		byStart[[2]int{c.Points[0].X, c.Points[0].Y}] = c.Points
	}
	for _, c := range got {
		if len(c.Points) == 0 {
			return fmt.Errorf("contour %d has no points", c.Label)
		}
		pts, ok := byStart[c.Points[0]]
		if !ok || len(pts) != len(c.Points) {
			return fmt.Errorf("contour %d differs from the oracle", c.Label)
		}
		for i, p := range pts {
			if c.Points[i] != [2]int{p.X, p.Y} {
				return fmt.Errorf("contour %d differs from the oracle at point %d", c.Label, i)
			}
		}
	}
	return nil
}

// checkPGM checks a PGM label map against the oracle partition: the same
// foreground, and one gray value per oracle component.
func checkPGM(r *raster, data []byte) error {
	hdr := fmt.Sprintf("P5\n%d %d\n255\n", r.bin.Width, r.bin.Height)
	if !bytes.HasPrefix(data, []byte(hdr)) || len(data) != len(hdr)+len(r.lm.L) {
		return fmt.Errorf("PGM header or size differs from %q", hdr)
	}
	pix := data[len(hdr):]
	value := make([]int16, r.want+1)
	for i := range value {
		value[i] = -1
	}
	for i, l := range r.lm.L {
		v := pix[i]
		if (l == 0) != (v == 0) {
			return fmt.Errorf("foreground differs from the oracle at pixel %d", i)
		}
		if l == 0 {
			continue
		}
		if value[l] < 0 {
			value[l] = int16(v)
		} else if value[l] != int16(v) {
			return fmt.Errorf("oracle component %d has gray values %d and %d", l, value[l], v)
		}
	}
	return nil
}
