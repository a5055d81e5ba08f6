package obs

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestParseTextRoundTrip renders a registry and reads it back: every
// instrument's value must be recoverable from the parsed snapshot.
func TestParseTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("events_total", "events", L("class", "CE")).Add(41)
	r.Counter("events_total", "events", L("class", "UER")).Add(2)
	r.Gauge("queue_depth", "depth").Set(17.5)
	h := r.Histogram("latency_seconds", "latency", []float64{0.01, 0.1, 1})
	for i := 0; i < 90; i++ {
		h.Observe(0.005)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	snap, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}

	if v, ok := snap.Value("events_total", L("class", "CE")); !ok || v != 41 {
		t.Errorf("events_total{class=CE} = %v, %v; want 41, true", v, ok)
	}
	if v, ok := snap.SumByName("events_total"); !ok || v != 43 {
		t.Errorf("SumByName(events_total) = %v, %v; want 43, true", v, ok)
	}
	if v, ok := snap.Value("queue_depth"); !ok || v != 17.5 {
		t.Errorf("queue_depth = %v, %v; want 17.5, true", v, ok)
	}
	if v, ok := snap.Value("latency_seconds_count"); !ok || v != 100 {
		t.Errorf("latency_seconds_count = %v, %v; want 100, true", v, ok)
	}
	// 90% of samples sit in the first bucket, so P50 interpolates inside
	// (0, 0.01] and P99 inside (0.1, 1].
	p50, ok := snap.Quantile("latency_seconds", 0.5)
	if !ok || p50 <= 0 || p50 > 0.01 {
		t.Errorf("P50 = %v, %v; want in (0, 0.01]", p50, ok)
	}
	p99, ok := snap.Quantile("latency_seconds", 0.99)
	if !ok || p99 <= 0.1 || p99 > 1 {
		t.Errorf("P99 = %v, %v; want in (0.1, 1]", p99, ok)
	}
	// The live histogram gives the scrape's estimate exactly: one
	// estimator over the same bucket counts.
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1} {
		want, _ := snap.Quantile("latency_seconds", q)
		if got, ok := h.Quantile(q); !ok || got != want {
			t.Errorf("Histogram.Quantile(%v) = %v, %v; scrape says %v", q, got, ok, want)
		}
	}
	if got, ok := h.Quantile(0.5); got != 0.01*50/90 || !ok {
		t.Errorf("Histogram.Quantile(0.5) = %v, %v; want %v (interpolated in the first bucket)", got, ok, 0.01*50/90)
	}
	var empty *Histogram
	if _, ok := empty.Quantile(0.5); ok {
		t.Error("nil histogram reported a quantile")
	}
	if _, ok := r.Histogram("idle_seconds", "never observed", nil).Quantile(0.5); ok {
		t.Error("empty histogram reported a quantile")
	}
}

// TestParseTextSpecials covers special values, timestamps and escapes.
func TestParseTextSpecials(t *testing.T) {
	const payload = `# HELP x help
# TYPE x gauge
x{path="a\"b\\c",note="line\nbreak"} +Inf
y -Inf 1700000000
z NaN
`
	snap, err := ParseText(strings.NewReader(payload))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	if v, ok := snap.Value("x", L("note", "line\nbreak"), L("path", `a"b\c`)); !ok || !math.IsInf(v, 1) {
		t.Errorf("x = %v, %v; want +Inf, true", v, ok)
	}
	if v, ok := snap.Value("y"); !ok || !math.IsInf(v, -1) {
		t.Errorf("y = %v, %v; want -Inf, true", v, ok)
	}
	if v, ok := snap.Value("z"); !ok || !math.IsNaN(v) {
		t.Errorf("z = %v, %v; want NaN, true", v, ok)
	}
}

// TestParseTextRejectsMalformed: a malformed line fails the whole parse.
func TestParseTextRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_value",
		`unterminated{a="b 1`,
		"1leading_digit 2",
		"name not_a_number",
	} {
		if _, err := ParseText(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("ParseText(%q): want error, got nil", bad)
		}
	}
}

// TestScrape exercises the HTTP path end to end against a live registry.
func TestScrape(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "hits").Add(7)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		r.WriteText(w)
	}))
	defer srv.Close()

	snap, err := Scrape(srv.Client(), srv.URL)
	if err != nil {
		t.Fatalf("Scrape: %v", err)
	}
	if v, ok := snap.Value("hits_total"); !ok || v != 7 {
		t.Errorf("hits_total = %v, %v; want 7, true", v, ok)
	}

	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer bad.Close()
	if _, err := Scrape(bad.Client(), bad.URL); err == nil {
		t.Error("Scrape of 503 endpoint: want error, got nil")
	}
}
