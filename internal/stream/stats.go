package stream

import (
	"time"

	"cordial/internal/obs"
)

// LatencySnapshot summarises one latency histogram at an instant: the
// histogram that GET /metrics renders, so /statsz and a scrape report the
// same distribution. Count and Mean are exact; the quantiles are the
// bucket-interpolated estimates of obs.Histogram.Quantile.
type LatencySnapshot struct {
	// Count is the number of observations.
	Count uint64
	// Mean is the lifetime average.
	Mean time.Duration
	// P50, P90 and P99 are estimated quantiles over the lifetime.
	P50, P90, P99 time.Duration
}

// latencyOf summarises a seconds-valued histogram.
func latencyOf(h *obs.Histogram) LatencySnapshot {
	s := LatencySnapshot{Count: h.Count()}
	if s.Count == 0 {
		return s
	}
	s.Mean = seconds(h.Sum() / float64(s.Count))
	q := func(p float64) time.Duration {
		v, _ := h.Quantile(p)
		return seconds(v)
	}
	s.P50, s.P90, s.P99 = q(0.50), q(0.90), q(0.99)
	return s
}

// seconds converts a histogram value to a duration.
func seconds(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }
