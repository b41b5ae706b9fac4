package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the schema test reads it: every key,
// so unknown or missing ones are caught.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) (*benchmarkFile, []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &b, data
}

func TestBenchmarkSchema(t *testing.T) {
	b, data := loadBenchmark(t)
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("%d workloads, want 2-8", len(b.Workloads))
	}
	workloads := map[string]bool{}
	var wnames []string
	for _, w := range b.Workloads {
		name("workload", w.Name)
		workloads[w.Name] = true
		wnames = append(wnames, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	if strings.Join(wnames, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, tgbench runs %v", wnames, workloadNames)
	}

	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", len(b.EndToEnd))
	}
	e2e := map[string]bool{}
	for i, m := range b.EndToEnd {
		name("end-to-end", m.Name)
		e2e[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
		if i < len(endToEnd) && (endToEnd[i].name != m.Name || endToEnd[i].unit != m.Unit) {
			t.Errorf("end-to-end #%d is %s %s in BENCHMARK.json, %s %s in tgbench", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Name == "setup_s" {
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
			for _, o := range b.EndToEnd {
				if *o.Bound > *m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, *o.Bound)
				}
			}
		}
	}
	if !e2e["setup_s"] {
		t.Error("setup_s missing")
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in tgbench", len(b.EndToEnd), len(endToEnd))
	}

	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", len(b.PerLayer))
	}
	for i, m := range b.PerLayer {
		name("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if i < len(perLayer) && (perLayer[i].name != m.Name || perLayer[i].unit != m.Unit) {
			t.Errorf("per-layer #%d is %s %s in BENCHMARK.json, %s %s in tgbench", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		mv, ok := layerMoves[layerOfMetric(m.Name)]
		if !ok || len(mv.Metrics) == 0 || len(mv.Workloads) == 0 {
			t.Errorf("%s: layer %q names no end-to-end metric and workload", m.Name, layerOfMetric(m.Name))
			continue
		}
		for _, e := range mv.Metrics {
			if !e2e[e] {
				t.Errorf("%s: moves unknown end-to-end metric %q", m.Name, e)
			}
		}
		for _, w := range mv.Workloads {
			if !workloads[w] {
				t.Errorf("%s: names unknown workload %q", m.Name, w)
			}
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in tgbench", len(b.PerLayer), len(perLayer))
	}

	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", b.Paths)
	}
	if len(b.Command) != 2 || b.Command[0] != "bash" {
		t.Errorf("command %v", b.Command)
	} else if _, err := os.Stat(filepath.Join("..", "..", b.Command[1])); err != nil {
		t.Errorf("command script: %v", err)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1-60", b.RunSeconds)
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(data, n=4), which spreads are judged by.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{4, 2}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks that each prints every metric BENCHMARK.json names with its unit,
// that the last line is the result object, and that every check passes.
func TestSmoke(t *testing.T) {
	b, _ := loadBenchmark(t)
	for _, w := range b.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"-workload", w.Name, "-size", "smoke", "-seconds", "0", "-seed", "7",
					"-trace", trace, "-workdir", t.TempDir()}
				if err := cli(args, &out); err != nil {
					t.Fatal(err)
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				printed := map[string]bool{}
				for _, l := range lines[:len(lines)-1] {
					f := strings.Fields(l)
					if len(f) != 3 || f[0] == "check" {
						continue
					}
					if _, err := strconv.ParseFloat(f[1], 64); err != nil {
						t.Errorf("line %q: value is not a number", l)
					}
					if unit, ok := want[f[0]]; ok && unit == f[2] {
						printed[f[0]] = true
					}
				}
				for name := range want {
					if !printed[name] {
						t.Errorf("metric %s not printed as \"%s <value> %s\"", name, name, want[name])
					}
				}
				var res struct {
					Correct   bool                   `json:"correct"`
					Attempted int                    `json:"attempted"`
					Failed    int                    `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("result correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result carries %d metrics, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("result metric %s: %+v, want unit %s", name, m, unit)
					}
				}
				if trace == "0" {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				}
			})
		}
	}
}
