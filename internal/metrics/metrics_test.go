package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/tgsim/tgmod/internal/simrand"
)

func TestSummary(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 {
		t.Error("empty summary not zero")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 || s.Mean() != 5 || s.Min() != 2 || s.Max() != 9 {
		t.Errorf("summary = %v", s.String())
	}
	// Population variance is 4; sample variance is 32/7.
	if math.Abs(s.Variance()-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", s.Variance(), 32.0/7)
	}
	if math.Abs(s.Stddev()-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("Stddev = %v", s.Stddev())
	}
}

func TestSummaryMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		r := simrand.New(seed)
		var s Summary
		n := 1 + r.Intn(200)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Normal(0, 100)
			s.Add(vals[i])
		}
		mean := 0.0
		for _, v := range vals {
			mean += v
		}
		mean /= float64(n)
		return math.Abs(s.Mean()-mean) < 1e-9*(1+math.Abs(mean))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	if s.Percentile(50) != 0 || s.Mean() != 0 {
		t.Error("empty sample not zero")
	}
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if s.N() != 100 {
		t.Errorf("N = %d", s.N())
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("P100 = %v, want 100", got)
	}
	if got := s.Median(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("median = %v, want 50.5", got)
	}
	if got := s.Percentile(150); got != 100 {
		t.Errorf("P150 clamp = %v", got)
	}
	if got := s.Percentile(-5); got != 1 {
		t.Errorf("P-5 clamp = %v", got)
	}
	if got := s.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("mean = %v, want 50.5", got)
	}
	// Adding after a query invalidates the sort correctly.
	s.Add(1000)
	if got := s.Percentile(100); got != 1000 {
		t.Errorf("P100 after add = %v, want 1000", got)
	}
}

func TestGini(t *testing.T) {
	var equal Sample
	for i := 0; i < 10; i++ {
		equal.Add(5)
	}
	if g := equal.Gini(); math.Abs(g) > 1e-9 {
		t.Errorf("equal Gini = %v, want 0", g)
	}
	var concentrated Sample
	for i := 0; i < 99; i++ {
		concentrated.Add(0)
	}
	concentrated.Add(1000)
	if g := concentrated.Gini(); g < 0.98 {
		t.Errorf("concentrated Gini = %v, want ~0.99", g)
	}
	var empty Sample
	if empty.Gini() != 0 {
		t.Error("empty Gini not 0")
	}
	var zeros Sample
	zeros.Add(0)
	if zeros.Gini() != 0 {
		t.Error("all-zero Gini not 0")
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(100)
	ts.Add(0, 1)
	ts.Add(99, 2)
	ts.Add(100, 10)
	ts.Add(550, 5)
	ts.Add(-10, 7) // clamps to bucket 0
	if ts.Len() != 6 {
		t.Fatalf("Len = %d, want 6", ts.Len())
	}
	if ts.Buckets()[0] != 10 || ts.Buckets()[1] != 10 || ts.Buckets()[5] != 5 {
		t.Errorf("buckets = %v", ts.Buckets())
	}
	if ts.Counts()[0] != 3 || ts.Counts()[5] != 1 {
		t.Errorf("counts = %v", ts.Counts())
	}
}

func TestTimeSeriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero period accepted")
		}
	}()
	NewTimeSeries(0)
}

func TestConfusion(t *testing.T) {
	c := NewConfusion([]string{"cat", "dog"})
	c.Observe("cat", "cat")
	c.Observe("cat", "cat")
	c.Observe("cat", "dog")
	c.Observe("dog", "dog")
	c.Observe("bird", "cat") // unknown → other row
	if c.Total() != 5 {
		t.Errorf("Total = %d, want 5", c.Total())
	}
	if c.Count("cat", "dog") != 1 || c.Count("bird", "cat") != 1 {
		t.Error("cell counts wrong")
	}
	// cat precision: predicted cat 3 times (2 true cat + 1 bird), TP=2.
	if got := c.Precision("cat"); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("Precision(cat) = %v, want 2/3", got)
	}
	// cat recall: 3 true cats, 2 correct.
	if got := c.Recall("cat"); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("Recall(cat) = %v, want 2/3", got)
	}
	if got := c.F1("cat"); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("F1(cat) = %v, want 2/3", got)
	}
	// Accuracy: 3 of 5 correct (2 cat + 1 dog).
	if got := c.Accuracy(); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("Accuracy = %v, want 0.6", got)
	}
	// Vacuous cases.
	if c.Precision("never-predicted-label") != 1 {
		t.Error("vacuous precision should be 1")
	}
	empty := NewConfusion([]string{"x"})
	if empty.Accuracy() != 0 {
		t.Error("empty accuracy should be 0")
	}
	if empty.Recall("x") != 1 {
		t.Error("vacuous recall should be 1")
	}
	if empty.F1("x") != 1 {
		t.Error("vacuous F1 should be 1 (p=r=1)")
	}
}

func TestConfusionF1Zero(t *testing.T) {
	c := NewConfusion([]string{"a", "b"})
	c.Observe("a", "b") // a: precision 1 (vacuous... no: predicted-as-a count 0 → precision 1), recall 0
	// F1(a): p=1, r=0 → 0.
	if got := c.F1("a"); got != 0 {
		t.Errorf("F1 = %v, want 0", got)
	}
}
