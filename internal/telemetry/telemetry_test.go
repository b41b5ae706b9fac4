package telemetry

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestCounterBasics(t *testing.T) {
	r := New()
	c := r.Counter("jobs_total", "Jobs.", "machine")
	a := c.With("abe")
	a.Inc()
	a.Inc()
	c.With("abe").Add(3) // same series through a second handle
	if got := a.Value(); got != 5 {
		t.Errorf("counter = %v, want 5", got)
	}
	if got := c.With("bigben").Value(); got != 0 {
		t.Errorf("fresh series = %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Add did not panic")
		}
	}()
	a.Add(-1)
}

func TestGaugeBasics(t *testing.T) {
	r := New()
	g := r.Gauge("depth", "Depth.", "machine")
	d := g.With("abe")
	d.Set(5)
	if got := d.Value(); got != 5 {
		t.Errorf("gauge = %v, want 5", got)
	}
	n := 42.0
	g.Func(func() float64 { return n }, "bigben")
	if got := g.With("bigben").Value(); got != 42 {
		t.Errorf("callback gauge = %v, want 42", got)
	}
	n = 43
	if got := g.With("bigben").Value(); got != 43 {
		t.Errorf("callback gauge after update = %v, want 43", got)
	}
}

func TestSchemaConsistencyPanics(t *testing.T) {
	r := New()
	r.Counter("x_total", "X.", "a")
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"different kind", func() { r.Gauge("x_total", "X.", "a") }},
		{"different label count", func() { r.Counter("x_total", "X.", "a", "b") }},
		{"different label names", func() { r.Counter("x_total", "X.", "z") }},
		{"wrong value count", func() { r.Counter("x_total", "X.", "a").With("v1", "v2") }},
		{"empty name", func() { r.Counter("", "X.") }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	// Every handle and instrument must be callable without panicking.
	c := r.Counter("a_total", "A.", "l").With("v")
	c.Inc()
	c.Add(2)
	g := r.Gauge("b", "B.").With()
	g.Set(1)
	r.Gauge("c", "C.").Func(func() float64 { return 1 })
	h := r.HistogramVec("d_seconds", "D.").With("extra", "ignored")
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.N() != 0 {
		t.Error("nil instruments returned nonzero values")
	}
	if r.Families() != nil {
		t.Error("nil registry has families")
	}
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "# EOF\n" {
		t.Errorf("nil exposition = %q, want EOF only", buf.String())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.N() != 0 || h.Sum() != 0 {
		t.Error("empty histogram nonzero")
	}
	for _, v := range []float64{1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	if h.N() != 5 || h.Sum() != 110 {
		t.Errorf("stats: n=%d sum=%v", h.N(), h.Sum())
	}
	// Negative and NaN observations clamp to zero instead of corrupting state.
	h2 := NewHistogram()
	h2.Observe(-5)
	h2.Observe(math.NaN())
	if h2.N() != 2 || h2.Sum() != 0 || h2.counts[0] != 2 {
		t.Errorf("clamped stats: %+v", h2)
	}
}

// buildSample populates a registry with one series of every kind, exercising
// label escaping, callback gauges, and histogram bucket rendering.
func buildSample(order []int) *Registry {
	r := New()
	steps := []func(){
		func() {
			c := r.Counter("tg_jobs_total", "Job lifecycle transitions.", "machine", "event")
			c.With("abe", "queued").Add(12)
			c.With("abe", "started").Add(10)
			c.With("bigben", "queued").Add(4)
		},
		func() {
			g := r.Gauge("tg_queue_depth", "Jobs waiting.", "machine")
			g.With("abe").Set(2)
			g.Func(func() float64 { return 5 }, "bigben")
		},
		func() {
			h := r.HistogramVec("tg_queue_wait_seconds", "Queue wait.", "machine")
			w := h.With("abe")
			for _, v := range []float64{0.5, 30, 30, 3600, 90000} {
				w.Observe(v)
			}
		},
		func() {
			r.Gauge("tg_label_escape", "Help with \\ backslash\nand newline.", "path").
				With(`quo"te\back` + "\nnewline").Set(1)
		},
	}
	for _, i := range order {
		steps[i]()
	}
	return r
}

func TestOpenMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildSample([]int{0, 1, 2, 3}).WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "sample.om")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestOpenMetricsOrderIndependent(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildSample([]int{0, 1, 2, 3}).WriteOpenMetrics(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildSample([]int{3, 2, 1, 0}).WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("exposition depends on registration order")
	}
}

var omLine = regexp.MustCompile(`^(# (HELP|TYPE|EOF).*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? -?[0-9+.eE-]+|[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? \+Inf)$`)

func TestOpenMetricsSyntax(t *testing.T) {
	var buf bytes.Buffer
	if err := buildSample([]int{0, 1, 2, 3}).WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatal("missing # EOF terminator")
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	for _, line := range lines {
		if !omLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
	}
	// Histogram invariants: cumulative buckets are monotone and the +Inf
	// bucket equals _count.
	var last float64 = -1
	var inf, count float64
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "tg_queue_wait_seconds_bucket"):
			var v float64
			fields := strings.Fields(line)
			v, _ = parseFloat(fields[len(fields)-1])
			if v < last {
				t.Errorf("non-monotone bucket line: %q", line)
			}
			last = v
			if strings.Contains(line, `le="+Inf"`) {
				inf = v
			}
		case strings.HasPrefix(line, "tg_queue_wait_seconds_count"):
			fields := strings.Fields(line)
			count, _ = parseFloat(fields[len(fields)-1])
		}
	}
	if inf != count || count != 5 {
		t.Errorf("+Inf bucket %v != count %v (want 5)", inf, count)
	}
}

func parseFloat(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}
