package telemetry

import (
	"bytes"
	"testing"
)

func buildRepRegistry(scale float64) *Registry {
	r := New()
	jobs := r.Counter("tg_jobs_total", "jobs", "modality")
	jobs.With("batch").Add(10 * scale)
	jobs.With("gateway").Add(3 * scale)
	g := r.Gauge("tg_util", "utilization", "machine")
	g.With("m1").Set(0.5 * scale)
	r.Gauge("tg_cb", "callback", "machine").Func(func() float64 { return 2 * scale }, "m1")
	h := r.HistogramVec("tg_wait_seconds", "wait", "modality")
	h.With("batch").Observe(1 * scale)
	h.With("batch").Observe(100 * scale)
	return r
}

func TestMergeAddsValues(t *testing.T) {
	a := buildRepRegistry(1)
	b := buildRepRegistry(2)
	m := New()
	m.Merge(a)
	m.Merge(b)

	if got := m.Counter("tg_jobs_total", "jobs", "modality").With("batch").Value(); got != 30 {
		t.Errorf("merged counter = %v, want 30", got)
	}
	if got := m.Gauge("tg_util", "utilization", "machine").With("m1").Value(); got != 1.5 {
		t.Errorf("merged gauge = %v, want 1.5", got)
	}
	// Callback gauges fold to stored values at merge time.
	if got := m.Gauge("tg_cb", "callback", "machine").With("m1").Value(); got != 6 {
		t.Errorf("merged callback gauge = %v, want 6", got)
	}
	hh := m.HistogramVec("tg_wait_seconds", "wait", "modality").With("batch")
	if hh.N() != 4 {
		t.Errorf("merged histogram n = %d, want 4", hh.N())
	}
	if hh.Sum() != 1+100+2+200 {
		t.Errorf("merged histogram sum = %v, want 303", hh.Sum())
	}
}

func TestMergeOrderIndependentOfWorkerOrder(t *testing.T) {
	// The fleet contract: merging finished registries in seed order gives a
	// byte-identical exposition no matter how the reps were scheduled. Here
	// the same ordered merge is done twice from independently built inputs.
	expose := func() []byte {
		m := New()
		for _, scale := range []float64{1, 2, 3} {
			m.Merge(buildRepRegistry(scale))
		}
		var buf bytes.Buffer
		if err := m.WriteOpenMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(expose(), expose()) {
		t.Fatal("ordered merges of identical inputs differ")
	}
}

func TestMergeIntoEmptyMatchesCopy(t *testing.T) {
	src := buildRepRegistry(1)
	dst := New()
	dst.Merge(src)
	var a, b bytes.Buffer
	if err := src.WriteOpenMetrics(&a); err != nil {
		t.Fatal(err)
	}
	if err := dst.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("merge into empty is not a copy:\n--- src\n%s\n--- dst\n%s", a.String(), b.String())
	}
	if src.SeriesCount() != dst.SeriesCount() {
		t.Fatalf("series count %d != %d", src.SeriesCount(), dst.SeriesCount())
	}
}

func TestMergeNilSafe(t *testing.T) {
	var nilReg *Registry
	nilReg.Merge(buildRepRegistry(1)) // must not panic
	r := New()
	r.Merge(nil)
	if r.SeriesCount() != 0 {
		t.Fatal("merge of nil added series")
	}
	var nilHist *Histogram
	nilHist.Merge(NewHistogram())
	NewHistogram().Merge(nil)
}

func TestMergeSchemaMismatchPanics(t *testing.T) {
	a := New()
	a.Counter("tg_x", "x", "l")
	a.Counter("tg_x", "x", "l").With("v").Inc()
	b := New()
	b.Gauge("tg_x", "x", "l").With("v").Set(1)
	defer func() {
		if recover() == nil {
			t.Fatal("merge with mismatched kind did not panic")
		}
	}()
	a.Merge(b)
}
