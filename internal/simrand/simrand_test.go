package simrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	a := Derive(42, "arrivals")
	b := Derive(42, "sizes")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("derived streams produced %d identical draws; expected none", same)
	}
	// Same name must reproduce.
	c := Derive(42, "arrivals")
	d := Derive(42, "arrivals")
	if c.Uint64() != d.Uint64() {
		t.Error("same-name derivation is not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(2)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates too far from %v", i, c, want)
		}
	}
}

func TestIntRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.IntRange(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("IntRange(5,9) = %d", v)
		}
	}
	if v := r.IntRange(4, 4); v != 4 {
		t.Errorf("IntRange(4,4) = %d, want 4", v)
	}
}

// moments draws n samples and returns their mean and variance.
func moments(n int, draw func() float64) (mean, variance float64) {
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := draw()
		sum += v
		sumSq += v * v
	}
	mean = sum / float64(n)
	variance = sumSq/float64(n) - mean*mean
	return mean, variance
}

func TestExpMoments(t *testing.T) {
	r := New(4)
	mean, variance := moments(200000, func() float64 { return r.Exp(0.5) })
	if math.Abs(mean-2) > 0.05 {
		t.Errorf("Exp(0.5) mean = %v, want ~2", mean)
	}
	if math.Abs(variance-4) > 0.3 {
		t.Errorf("Exp(0.5) variance = %v, want ~4", variance)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(5)
	mean, variance := moments(200000, func() float64 { return r.Normal(10, 3) })
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Normal(10,3) mean = %v, want ~10", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Errorf("Normal(10,3) variance = %v, want ~9", variance)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(6)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormal(2, 1)
	}
	below := 0
	for _, v := range vals {
		if v < math.Exp(2) {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("LogNormal(2,1): fraction below e^2 = %v, want ~0.5", frac)
	}
}

func TestParetoBounds(t *testing.T) {
	r := New(8)
	mean, _ := moments(400000, func() float64 { return r.Pareto(1, 3) })
	// Pareto(xm=1, alpha=3) mean = alpha*xm/(alpha-1) = 1.5
	if math.Abs(mean-1.5) > 0.05 {
		t.Errorf("Pareto(1,3) mean = %v, want ~1.5", mean)
	}
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(2, 1.1); v < 2 {
			t.Fatalf("Pareto(2,·) produced %v < xm", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(12)
	z := NewZipf(100, 1.2)
	counts := make([]int, 101)
	const draws = 200000
	for i := 0; i < draws; i++ {
		k := z.Sample(r)
		if k < 1 || k > 100 {
			t.Fatalf("Zipf sample out of range: %d", k)
		}
		counts[k]++
	}
	if counts[1] <= counts[2] || counts[2] <= counts[4] {
		t.Errorf("Zipf not monotone-decreasing: c1=%d c2=%d c4=%d", counts[1], counts[2], counts[4])
	}
	if counts[1] < draws/10 {
		t.Errorf("Zipf rank-1 share too small: %d/%d", counts[1], draws)
	}
}

func TestEmpirical(t *testing.T) {
	r := New(13)
	e := NewEmpirical([]float64{1, 0, 3})
	counts := make([]int, 3)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[e.Sample(r)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight bucket sampled %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

func TestPowerOfTwo(t *testing.T) {
	r := New(14)
	for i := 0; i < 10000; i++ {
		v := r.PowerOfTwo(3, 8)
		if v < 8 || v > 256 || v&(v-1) != 0 {
			t.Fatalf("PowerOfTwo(3,8) = %d", v)
		}
	}
}

func TestPanics(t *testing.T) {
	r := New(15)
	cases := map[string]func(){
		"Intn(0)":        func() { r.Intn(0) },
		"IntRange rev":   func() { r.IntRange(3, 2) },
		"Exp(0)":         func() { r.Exp(0) },
		"Pareto":         func() { r.Pareto(0, 1) },
		"Zipf n=0":       func() { NewZipf(0, 1) },
		"Empirical nil":  func() { NewEmpirical(nil) },
		"Empirical neg":  func() { NewEmpirical([]float64{-1}) },
		"Empirical zero": func() { NewEmpirical([]float64{0, 0}) },
		"PowerOfTwo rev": func() { r.PowerOfTwo(5, 4) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Exp(1)
	}
	_ = sink
}
