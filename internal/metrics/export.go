package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Export is the serialisable snapshot of a registry at the end of a run:
// final instrument values, the per-interval time series, and the event
// log. It is embedded in sim.Result (so determinism tests compare it) and
// is what mtmsim writes to -metrics files. All slices are in deterministic
// order: instruments grouped by name, series columns in registration
// order, events and samples in emission order.
type Export struct {
	Instruments   []InstrumentExport `json:"instruments"`
	Series        *SeriesExport      `json:"series,omitempty"`
	Events        []Event            `json:"events,omitempty"`
	EventsDropped int64              `json:"events_dropped,omitempty"`
}

// InstrumentExport is one instrument's final state.
type InstrumentExport struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Help   string  `json:"help,omitempty"`
	Labels []Label `json:"labels,omitempty"`
	// Value is the final counter/gauge value (unused for histograms).
	Value float64 `json:"value"`
	// Histogram state (cumulative bucket counts, Prometheus-style).
	Buckets []BucketExport `json:"buckets,omitempty"`
	Sum     float64        `json:"sum,omitempty"`
	Count   int64          `json:"count,omitempty"`
}

// BucketExport is one cumulative histogram bucket.
type BucketExport struct {
	// UpperBound is the bucket's inclusive upper bound; +Inf is rendered
	// as the JSON string "+Inf" by UpperBoundLabel (math.Inf does not
	// round-trip through encoding/json), so the last bucket uses
	// Infinite=true instead of a bound.
	UpperBound float64 `json:"upper_bound,omitempty"`
	Infinite   bool    `json:"infinite,omitempty"`
	// CumulativeCount counts observations <= UpperBound.
	CumulativeCount int64 `json:"cumulative_count"`
}

// SeriesExport is the per-interval time series: one named column per
// scalar instrument, one row per profiling interval.
type SeriesExport struct {
	Columns []string   `json:"columns"`
	Samples []Snapshot `json:"samples"`
}

// Export snapshots the registry. Returns nil on a nil registry.
func (r *Registry) Export() *Export {
	if r == nil {
		return nil
	}
	x := &Export{
		Events:        r.events,
		EventsDropped: r.eventsDropped,
	}
	for _, in := range r.sortedInstruments() {
		ie := InstrumentExport{
			Name:   in.name,
			Kind:   in.kind.String(),
			Help:   in.help,
			Labels: in.labels,
		}
		switch in.kind {
		case KindCounter:
			ie.Value = float64(in.count())
		case KindGauge:
			ie.Value = in.g.v
		case KindHistogram:
			var cum int64
			for i, c := range in.h.counts {
				cum += c
				b := BucketExport{CumulativeCount: cum}
				if i < len(in.h.bounds) {
					b.UpperBound = in.h.bounds[i]
				} else {
					b.Infinite = true
				}
				ie.Buckets = append(ie.Buckets, b)
			}
			ie.Sum = in.h.sum
			ie.Count = in.h.count
		}
		x.Instruments = append(x.Instruments, ie)
	}
	if len(r.scalars) > 0 {
		se := &SeriesExport{Columns: make([]string, len(r.scalars)), Samples: r.series}
		for i, in := range r.scalars {
			se.Columns[i] = in.full
		}
		x.Series = se
	}
	return x
}

// escapeLabelValue escapes a label value per the Prometheus text format.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// escapeHelp escapes HELP text per the Prometheus text format: only
// backslash and newline (quotes stay literal in HELP, unlike label
// values). An unescaped newline would split the docstring into a second
// exposition line and corrupt the stream.
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabelValue(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// WriteProm writes the export in Prometheus text exposition format
// (version 0.0.4): one HELP/TYPE header per metric family, then the
// family's sample lines; histograms expand to _bucket/_sum/_count.
func (x *Export) WriteProm(w io.Writer) error {
	lastName := ""
	for _, in := range x.Instruments {
		if in.Name != lastName {
			if in.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", in.Name, escapeHelp(in.Help)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", in.Name, in.Kind); err != nil {
				return err
			}
			lastName = in.Name
		}
		switch in.Kind {
		case "histogram":
			for _, b := range in.Buckets {
				le := "+Inf"
				if !b.Infinite {
					le = formatValue(b.UpperBound)
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					in.Name, renderLabels(in.Labels, L("le", le)), b.CumulativeCount); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", in.Name, renderLabels(in.Labels), formatValue(in.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", in.Name, renderLabels(in.Labels), in.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", in.Name, renderLabels(in.Labels), formatValue(in.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteProm writes the registry's current state in Prometheus text
// exposition format. A nil registry writes nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	return r.Export().WriteProm(w)
}
