package obs

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// PromWriter emits Prometheus text exposition format (version 0.0.4) with
// no external dependencies: # HELP / # TYPE headers followed by samples.
// Families must be written whole (header then all samples) and each
// family name at most once, matching what scrapers require.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter wraps w. The first write error sticks; Err reports it.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first underlying write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Labels is an ordered label set; order is preserved on output.
type Labels [][2]string

// L builds a label set from alternating key, value strings.
func L(kv ...string) Labels {
	var out Labels
	for i := 0; i+1 < len(kv); i += 2 {
		out = append(out, [2]string{kv[i], kv[i+1]})
	}
	return out
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (p *PromWriter) header(name, help, mtype string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, mtype)
}

func (p *PromWriter) sample(name, suffix string, labels Labels, value float64) {
	if len(labels) == 0 {
		p.printf("%s%s %s\n", name, suffix, formatValue(value))
		return
	}
	var sb strings.Builder
	for i, kv := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(kv[0])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(kv[1]))
		sb.WriteByte('"')
	}
	p.printf("%s%s{%s} %s\n", name, suffix, sb.String(), formatValue(value))
}

// Flag is a boolean as a gauge value: 1 for true, 0 for false.
func Flag(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Sample is one labelled value of a counter or gauge family.
type Sample struct {
	Labels Labels
	Value  float64
}

// Counter writes a whole counter family.
func (p *PromWriter) Counter(name, help string, samples ...Sample) {
	p.header(name, help, "counter")
	for _, s := range samples {
		p.sample(name, "", s.Labels, s.Value)
	}
}

// Gauge writes a whole gauge family.
func (p *PromWriter) Gauge(name, help string, samples ...Sample) {
	p.header(name, help, "gauge")
	for _, s := range samples {
		p.sample(name, "", s.Labels, s.Value)
	}
}

// HistSeries is one labelled histogram of a histogram family.
type HistSeries struct {
	Labels Labels
	Snap   HistSnapshot
}

// Histogram writes a whole histogram family in the Prometheus convention:
// cumulative _bucket samples with le bounds in seconds, then _sum
// (seconds) and _count. Bucket bounds come from the shared table.
func (p *PromWriter) Histogram(name, help string, series ...HistSeries) {
	p.header(name, help, "histogram")
	for _, s := range series {
		var cum uint64
		for i, c := range s.Snap.Buckets {
			cum += c
			le := "+Inf"
			if i < len(bucketBoundsNS) {
				le = formatValue(float64(bucketBoundsNS[i]) / 1e9)
			}
			p.sample(name, "_bucket", append(append(Labels{}, s.Labels...), [2]string{"le", le}), float64(cum))
		}
		p.sample(name, "_sum", s.Labels, float64(s.Snap.SumNS)/1e9)
		p.sample(name, "_count", s.Labels, float64(s.Snap.Count))
	}
}

// processStart anchors process_uptime_seconds. Captured at package init —
// close enough to process start for an uptime gauge.
var processStart = time.Now()

// WriteRuntimeMetrics emits the Go runtime families: goroutines, memory
// stats, GC counters, and process uptime.
func WriteRuntimeMetrics(p *PromWriter) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.Gauge("go_goroutines", "Number of goroutines that currently exist.",
		Sample{Value: float64(runtime.NumGoroutine())})
	p.Gauge("go_memstats_alloc_bytes", "Number of bytes allocated and still in use.",
		Sample{Value: float64(ms.Alloc)})
	p.Gauge("go_memstats_sys_bytes", "Number of bytes obtained from the system.",
		Sample{Value: float64(ms.Sys)})
	p.Gauge("go_memstats_heap_objects", "Number of allocated objects.",
		Sample{Value: float64(ms.HeapObjects)})
	p.Counter("go_memstats_mallocs_total", "Total number of mallocs.",
		Sample{Value: float64(ms.Mallocs)})
	p.Counter("go_gc_cycles_total", "Number of completed GC cycles.",
		Sample{Value: float64(ms.NumGC)})
	p.Counter("go_gc_pause_seconds_total", "Total GC stop-the-world pause time.",
		Sample{Value: float64(ms.PauseTotalNs) / 1e9})
	p.Gauge("process_uptime_seconds", "Seconds since the process started.",
		Sample{Value: time.Since(processStart).Seconds()})
}
