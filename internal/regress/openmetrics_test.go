package regress

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/tgsim/tgmod/internal/telemetry"
)

// TestParseOpenMetricsGolden pins the parser against a checked-in
// exposition: exact series identities (name + label set, as exposed) and
// exact values.
func TestParseOpenMetricsGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "golden.om"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ParseOpenMetrics(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		`tg_jobs_finished_total{modality="batch-capacity"}`: 2258,
		`tg_jobs_finished_total{modality="gateway"}`:        1072,
		`tg_nus_charged`: 2.1020939e+07,
		`tg_queue_wait_seconds{machine="ridge-xt",quantile="0.5"}`: 431.25,
		`tg_drift_rate{window="1h"}`:                               0,
		`tg_drift_rate{window="24h"}`:                              0.0413,
		`tg_label_with_space{app="my app"}`:                        -17.5,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed golden exposition:\n got %v\nwant %v", got, want)
	}
}

// TestParseOpenMetricsEncodeParseEncode: render a rich registry, parse it,
// re-render the parsed samples, and parse again — the two parses must be
// identical, and every sample line of the original exposition must be
// accounted for (nothing silently skipped or aliased).
func TestParseOpenMetricsEncodeParseEncode(t *testing.T) {
	reg := telemetry.New()
	cv := reg.Counter("tg_c_total", "Counter.", "mod", "src")
	cv.With("ensemble", "inference").Add(7)
	cv.With("gateway", "attribute").Add(11)
	reg.Gauge("tg_neg", "Negative gauge.").With().Set(-2.25)
	reg.Gauge("tg_tiny", "Sub-epsilon gauge.").With().Set(4e-12)
	reg.Gauge("tg_spaced", "Label value with spaces.", "app").With("a b c").Set(1)
	reg.HistogramVec("tg_h_seconds", "Histogram.", "m").With("x").Observe(0.5)

	var sb strings.Builder
	if err := reg.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	exposition := sb.String()
	first, err := ParseOpenMetrics(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	// Every non-comment line is one sample; the parse must keep them all.
	samples := 0
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		samples++
	}
	if len(first) != samples {
		t.Fatalf("parsed %d series from %d sample lines", len(first), samples)
	}

	// Re-encode from the parsed map and parse again.
	keys := make([]string, 0, len(first))
	for k := range first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var re strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&re, "%s %g\n", k, first[k])
	}
	re.WriteString("# EOF\n")
	second, err := ParseOpenMetrics(strings.NewReader(re.String()))
	if err != nil {
		t.Fatalf("re-encoded exposition failed to parse: %v\n%s", err, re.String())
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("encode→parse→encode→parse drifted:\nfirst  %v\nsecond %v", first, second)
	}
}

// TestParseOpenMetricsMalformed: each malformed input names its own error;
// none of them parse silently.
func TestParseOpenMetricsMalformed(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"no value", "tg_x\n", "no value"},
		{"trailing space", "tg_x 1 \n", "no value"},
		{"value only", " 1\n", "no value"},
		{"non-numeric", "tg_x one\n", "bad value"},
		{"duplicate series", "tg_x 1\ntg_x 2\n", "duplicate series"},
		{"duplicate labeled", "tg_x{a=\"b\"} 1\ntg_x{a=\"b\"} 2\n", "duplicate series"},
	}
	for _, c := range cases {
		_, err := ParseOpenMetrics(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: %q parsed without error", c.name, c.in)
			continue
		}
		if !errors.Is(err, ErrBadOpenMetrics) || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not wrap ErrBadOpenMetrics or name %q", c.name, err, c.wantErr)
		}
	}
	// Errors carry the offending line number.
	_, err := ParseOpenMetrics(strings.NewReader("tg_ok 1\n# c\ntg_bad x\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %v does not locate line 3", err)
	}
}

// FuzzParseOpenMetrics: arbitrary input never panics, and accepted input
// reparses to the same series after re-encoding (parser self-consistency).
func FuzzParseOpenMetrics(f *testing.F) {
	f.Add("# HELP tg_x help\n# TYPE tg_x gauge\ntg_x 1\n# EOF\n")
	f.Add(`tg_c_total{mod="ensemble",src="inference"} 7` + "\n")
	f.Add(`tg_spaced{app="a b c"} -2.5e-3` + "\n")
	f.Add("tg_a 1\ntg_b 2\n\n# comment\n")
	f.Add("tg_x\n")
	f.Add("tg_x 1 \n")
	f.Add("tg_x NaN\ntg_y +Inf\n")
	f.Add("{} 0\n")
	f.Fuzz(func(t *testing.T, in string) {
		series, err := ParseOpenMetrics(strings.NewReader(in))
		if err != nil {
			if !errors.Is(err, ErrBadOpenMetrics) {
				t.Fatalf("error %v does not wrap ErrBadOpenMetrics", err)
			}
			return
		}
		keys := make([]string, 0, len(series))
		for k := range series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var re strings.Builder
		for _, k := range keys {
			// Keys containing newlines could smuggle extra lines into the
			// re-encoding; the scanner splits on newlines so a key never
			// contains one. (A bare carriage return inside a key is legal:
			// only line-terminal \r is stripped, so it round-trips.)
			if strings.Contains(k, "\n") {
				t.Fatalf("accepted key with newline: %q", k)
			}
			fmt.Fprintf(&re, "%s %g\n", k, series[k])
		}
		again, err := ParseOpenMetrics(strings.NewReader(re.String()))
		if err != nil {
			t.Fatalf("re-encoded accepted input failed to parse: %v\nfrom %q", err, in)
		}
		for k, v := range series {
			got, ok := again[k]
			// NaN never equals itself; compare representations.
			if !ok || fmt.Sprint(got) != fmt.Sprint(v) {
				t.Fatalf("series %q: %v -> %v after round trip", k, v, got)
			}
		}
	})
}
