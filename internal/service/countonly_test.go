package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"testing"

	paremsp "repro"
	"repro/internal/pnm"
)

// TestCountOnlyMatchesFullJSON: a binary /v1/label JSON request with
// ?components=false stops after FLATTEN, and must answer exactly what the
// full path answers with the component list dropped — phases aside, which
// differ run to run and whose relabel time must read 0 — for every binary
// codec, every REMSP algorithm and thread counts 1 to 4.
func TestCountOnlyMatchesFullJSON(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2}, HandlerConfig{})
	rng := rand.New(rand.NewSource(18))
	img := paremsp.NewImage(53, 41) // rows end mid-byte in P4; odd height leaves a lone last row
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(2))
	}
	var plain, p5 bytes.Buffer
	if err := pnm.EncodePBM(&plain, img, false); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&p5, "P5\n%d %d\n255\n", img.Width, img.Height)
	for range img.Pix {
		p5.WriteByte(byte(rng.Intn(256)))
	}
	bodies := []struct {
		name, ct, query string
		body            []byte
	}{
		{"P1", ctPBM, "", plain.Bytes()},
		{"P4", ctPBM, "", pbmBody(t, img)},
		{"P5", ctPGM, "&level=0.35", p5.Bytes()},
		{"PNG", ctPNG, "", pngBody(t, img)},
	}
	algs := []paremsp.Algorithm{paremsp.AlgPAREMSP, paremsp.AlgAREMSP, paremsp.AlgCCLREMSP, paremsp.AlgPBREMSP, paremsp.AlgBREMSP}
	label := func(t *testing.T, url, ct string, body []byte) (labelResponse, []byte) {
		t.Helper()
		resp := post(t, url, ct, ctJSON, body)
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v: %s", url, resp.StatusCode, err, raw)
		}
		var out labelResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return out, raw
	}
	for _, b := range bodies {
		for _, alg := range algs {
			for threads := 1; threads <= 4; threads++ {
				t.Run(fmt.Sprintf("%s/%s/t%d", b.name, alg, threads), func(t *testing.T) {
					url := fmt.Sprintf("%s/v1/label?alg=%s&threads=%d%s", srv.URL, alg, threads, b.query)
					full, _ := label(t, url, b.ct, b.body)
					count, raw := label(t, url+"&components=false", b.ct, b.body)
					if len(full.Components) != full.NumComponents {
						t.Fatalf("full path listed %d components for num_components %d", len(full.Components), full.NumComponents)
					}
					if (count.Phases == nil) != (full.Phases == nil) {
						t.Fatalf("phases reported by one path only: count-only %v, full %v", count.Phases, full.Phases)
					}
					if count.Phases != nil && (count.Phases.RelabelNs != 0 || !bytes.Contains(raw, []byte(`"relabel_ns":0`))) {
						t.Fatalf("count-only relabel_ns = %d, want 0: %s", count.Phases.RelabelNs, raw)
					}
					full.Components, full.Phases, count.Phases = nil, nil, nil
					if !reflect.DeepEqual(count, full) {
						t.Fatalf("count-only answer %+v, full answer without components %+v", count, full)
					}
				})
			}
		}
	}
}
