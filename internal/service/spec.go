package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"

	paremsp "repro"
	"repro/internal/jobs"
)

// The service's one request-parsing path. Every /v1/* admission endpoint —
// /v1/label, /v1/stats, /v1/volume, POST /v1/jobs — parses its query
// string through parseSpec, so a parameter means the same thing, takes the
// same values, and fails with the same error code and wording everywhere.
// Adding a parameter here adds it to every endpoint at once.

// Error codes of the structured error envelope. Every non-2xx response on
// a /v1/* endpoint is {"error":{"code":..., "message":...}}; the code is
// the stable, machine-matchable vocabulary (messages may be reworded).
const (
	codeInvalidArgument  = "invalid_argument"       // 400: bad parameter or body
	codeUnsupportedMedia = "unsupported_media_type" // 415: Content-Type not spoken
	codeNotAcceptable    = "not_acceptable"         // 406: Accept not satisfiable
	codePayloadTooLarge  = "payload_too_large"      // 413: body over -max-bytes
	codeQueueFull        = "queue_full"             // 429: backpressure shed
	codeUnavailable      = "unavailable"            // 503: draining, closed, canceled
	codeTimeout          = "timeout"                // 504: request/job deadline lapsed
	codeInternal         = "internal"               // 500: contained worker panic, store fault
	codeNotFound         = "not_found"              // 404: unknown job
)

// errorJSON is the wire form of the error envelope.
type errorJSON struct {
	Error errorBodyJSON `json:"error"`
}

type errorBodyJSON struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeError writes the structured error envelope. Headers that must
// accompany the status (Retry-After on 429/503) are set by the caller
// before this call.
func writeError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", ctJSON)
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorJSON{Error: errorBodyJSON{Code: code, Message: message}})
}

// apiError is a request-validation failure carrying its HTTP status and
// envelope code, so parse errors surface identically on every endpoint.
type apiError struct {
	status  int
	code    string
	message string
}

func (e *apiError) Error() string { return e.message }

func badParam(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, code: codeInvalidArgument, message: fmt.Sprintf(format, args...)}
}

// requestSpec is the parsed, validated form of a /v1/* admission request:
// what it computes — the job kind — and how, as the Params an async job
// journals, so a synchronous request is exactly a job without the store.
type requestSpec struct {
	kind   jobs.Kind
	params jobs.Params
	// components is ?components= (include per-component statistics in JSON
	// responses; default true).
	components bool
}

// kindModes lists the modes each job kind labels. The first is the kind's
// natural mode, which binary — the mode when ?mode= is absent — stands for.
var kindModes = map[jobs.Kind][]paremsp.Mode{
	jobs.KindLabels:   {paremsp.ModeBinary},
	jobs.KindStats:    {paremsp.ModeBinary},
	jobs.KindContours: {paremsp.ModeBinary},
	jobs.KindGray:     {paremsp.ModeGray, paremsp.ModeGrayDelta},
	jobs.KindVolume:   {paremsp.ModeVolume},
}

// parseSpec parses and validates the query parameters shared by the
// admission endpoints, then resolves the job kind: /v1/stats and
// /v1/volume fix it, POST /v1/jobs takes ?kind=, and otherwise the spec
// decides — gray modes label gray, volume labels volumes, contours=true
// traces contours, anything else labels. Contradictory combinations
// (kind=stats with mode=gray, contours=true on a volume, ...) are
// rejected, and the mode is pinned to the kind's so the journaled Params
// and the job key are identical however the request spelled it.
// Connectivity is validated against the mode's neighborhood (binary: 4/8,
// gray: 8, volume: 26) before that pinning, so a bad value fails the same
// way on every endpoint; 0 always selects the mode's default.
func (h *Handler) parseSpec(r *http.Request) (requestSpec, error) {
	q := r.URL.Query()
	p := jobs.Params{Alg: string(h.defaultAlg), Level: h.level, ContentType: r.Header.Get("Content-Type")}
	mode := paremsp.ModeBinary
	if v := q.Get("mode"); v != "" {
		mode = paremsp.Mode(v)
		if !slices.Contains(paremsp.Modes(), mode) {
			return requestSpec{}, badParam("unknown mode %q (want one of %v)", v, paremsp.Modes())
		}
	}
	if v := q.Get("alg"); v != "" {
		if !slices.Contains(paremsp.Algorithms(), paremsp.Algorithm(v)) {
			return requestSpec{}, badParam("unknown algorithm %q", v)
		}
		p.Alg = v
	}
	if v := q.Get("threads"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return requestSpec{}, badParam("invalid threads %q", v)
		}
		p.Threads = n
	}
	if v := q.Get("conn"); v != "" {
		n, err := strconv.Atoi(v)
		if ok, want := connFor(mode, n); err != nil || !ok {
			return requestSpec{}, badParam("invalid conn %q (mode %s wants %s)", v, mode, want)
		}
		p.Conn = n
	}
	if v := q.Get("level"); v != "" {
		lv, err := strconv.ParseFloat(v, 64)
		if err != nil || lv < 0 || lv >= 1 {
			return requestSpec{}, badParam("invalid level %q (want [0, 1))", v)
		}
		p.Level = lv
	}
	if v := q.Get("delta"); v != "" {
		if mode != paremsp.ModeGrayDelta {
			return requestSpec{}, badParam("delta requires mode=%s", paremsp.ModeGrayDelta)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n > 255 {
			return requestSpec{}, badParam("invalid delta %q (want 0..255)", v)
		}
		p.Delta = uint8(n)
	}
	if v := q.Get("band"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return requestSpec{}, badParam("invalid band %q (want rows >= 0)", v)
		}
		p.BandRows = n
	}
	components, err := h.componentsParam(q)
	if err != nil {
		return requestSpec{}, err
	}
	contours, err := boolParam(q, "contours", false)
	if err != nil {
		return requestSpec{}, err
	}

	var kind jobs.Kind
	switch r.Pattern {
	case "POST /v1/stats":
		kind = jobs.KindStats
	case "POST /v1/volume":
		kind = jobs.KindVolume
	case "POST /v1/jobs":
		kind = jobs.Kind(q.Get("kind"))
	}
	if kind == "" {
		switch {
		case mode == paremsp.ModeGray || mode == paremsp.ModeGrayDelta:
			kind = jobs.KindGray
		case mode == paremsp.ModeVolume && r.Pattern == "POST /v1/label":
			return requestSpec{}, badParam("mode volume is served by POST /v1/volume")
		case mode == paremsp.ModeVolume:
			kind = jobs.KindVolume
		case contours:
			kind = jobs.KindContours
		default:
			kind = jobs.KindLabels
		}
	}
	modes, ok := kindModes[kind]
	switch {
	case !ok:
		return requestSpec{}, badParam("invalid kind %q (want %s, %s, %s, %s or %s)", kind,
			jobs.KindLabels, jobs.KindStats, jobs.KindContours, jobs.KindGray, jobs.KindVolume)
	case mode == paremsp.ModeBinary:
		mode = modes[0]
	case !slices.Contains(modes, mode):
		return requestSpec{}, badParam("mode %s cannot produce %s results", mode, kind)
	}
	if contours && kind != jobs.KindContours {
		return requestSpec{}, badParam("contours=true cannot produce %s results", kind)
	}
	if mode != paremsp.ModeBinary {
		p.Mode = string(mode)
	}
	return requestSpec{kind: kind, params: p, components: components}, nil
}

// componentsParam reads ?components= (default true). The pre-rename
// ?stats= is honored for one release and logged at warn.
func (h *Handler) componentsParam(q url.Values) (bool, error) {
	if q.Get("components") == "" && q.Get("stats") != "" {
		// Renamed to ?components= (the response field it controls).
		h.obs.log.Warn("deprecated query parameter", "param", "stats", "use", "components")
		return boolParam(q, "stats", true)
	}
	return boolParam(q, "components", true)
}

// boolParam reads a boolean query parameter, def when absent.
func boolParam(q url.Values, name string, def bool) (bool, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, badParam("invalid %s %q", name, v)
	}
	return b, nil
}

// connFor reports whether conn is a valid ?conn= for the mode — 0 (unset)
// selects the default of the fixed-neighborhood modes — and words the
// valid values for error messages.
func connFor(mode paremsp.Mode, conn int) (ok bool, want string) {
	switch mode {
	case paremsp.ModeGray, paremsp.ModeGrayDelta:
		return conn == 0 || conn == 8, "8"
	case paremsp.ModeVolume:
		return conn == 0 || conn == 26, "26"
	default:
		return conn == 4 || conn == 8, "4 or 8"
	}
}
