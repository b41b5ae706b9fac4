package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords loads the untraced records of a -json file, keyed by workload
// and metric name.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// compareRecords prints, per workload and end-to-end metric, each set's
// median and quartiles, its spread (quartile distance over median), and
// whether set B's median is within the metric's bound of set A's in the
// worse direction. It fails when any pair disagrees or any spread other
// than setup_s's exceeds its bound.
func compareRecords(specPath, pathA, pathB string, w io.Writer) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tn\tA median [q1, q3]\tA spread\tB median [q1, q3]\tB spread\tB vs A\tbound\tverdict")
	bad := 0
	var names []string
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
	}
	sort.Strings(names)
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%d/%d\t-\t-\t-\t-\t-\t%.2f\tmissing\n", wl, m.Name, len(va), len(vb), m.Bound)
				bad++
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			sa, sb := (a3-a1)/a2, (b3-b1)/b2
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "agree"
			switch {
			case worse > m.Bound:
				verdict = "WORSE"
			case m.Name != "setup_s" && math.Max(sa, sb) > m.Bound:
				verdict = "NOISY"
			case m.Name != "setup_s" && math.Max(sa, sb) > m.Bound/3:
				verdict = "agree (spread > bound/3)"
			}
			if verdict == "WORSE" || verdict == "NOISY" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%.6g [%.6g, %.6g]\t%.4f\t%.6g [%.6g, %.6g]\t%.4f\t%+.4f\t%.2f\t%s\n",
				wl, m.Name, len(va), len(vb), a2, a1, a3, sa, b2, b1, b3, sb, worse, m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d (workload, metric) pairs missing, noisier than their bound, or worse by more than it", bad)
	}
	return nil
}
