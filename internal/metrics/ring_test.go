package metrics

import "testing"

func TestRingExpiry(t *testing.T) {
	r := NewRing[GoodBad](60, 10) // 10-minute window, 1-minute buckets
	r.At(0).Add(false)
	if got := r.Total(0); got != (GoodBad{0, 1}) {
		t.Fatalf("total = %+v, want 0/1", got)
	}
	// Still in-window 9 buckets later.
	if got := r.Total(9 * 60); got.Bad != 1 {
		t.Error("observation expired early")
	}
	// Gone once the clock laps its bucket.
	if got := r.Total(10 * 60); got.Bad != 0 {
		t.Error("observation failed to expire")
	}
	// A huge jump clears everything without wrapping trouble.
	r.At(11 * 60).Add(true)
	r.At(1e9).Add(false)
	if got := r.Total(1e9); got != (GoodBad{0, 1}) {
		t.Errorf("after lap: total = %+v, want 0/1", got)
	}
	// A late observation lands in its own bucket and expires nothing.
	r.At(1e9 - 60).Add(true)
	if got := r.Total(1e9); got != (GoodBad{1, 1}) || got.BadFrac() != 0.5 {
		t.Errorf("after late add: total = %+v (bad frac %v), want 1/1", got, got.BadFrac())
	}
	if f := (GoodBad{}).BadFrac(); f != 0 {
		t.Errorf("empty bad frac = %v, want 0", f)
	}
}
