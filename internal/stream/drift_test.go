package stream_test

import (
	"testing"

	"github.com/tgsim/tgmod/internal/experiments"
	"github.com/tgsim/tgmod/internal/regress"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/stream"
)

// TestDriftHistoryLiveEqualsReplay: the live stream offers records in
// flush order, which interleaves the sites' packets and so steps back in
// time; a replay of the same records offers them in time order. On quick
// seed 7 both must keep one history cell per hour, in ascending order,
// and score as many classifications in each.
func TestDriftHistoryLiveEqualsReplay(t *testing.T) {
	fed, err := scenario.TG9()
	if err != nil {
		t.Fatal(err)
	}
	largest := 0
	for _, m := range fed.Machines() {
		largest = max(largest, m.BatchCores())
	}
	cfg := experiments.StandardConfig(7, experiments.Quick)
	live := stream.New(stream.Config{LargestCores: largest})
	cfg.Observers = append(cfg.Observers, stream.Tap(live))
	res, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	end := cfg.Horizon + cfg.DrainTime
	live.Advance(end)
	replayed := stream.New(stream.Config{LargestCores: largest})
	rp := &stream.Replay{Run: &regress.Run{Central: res.Central}, EndTime: end}
	if _, _, err := rp.Feed(replayed); err != nil {
		t.Fatal(err)
	}

	hist := live.DriftHistory()
	scored := int64(0)
	for i, c := range hist {
		if i > 0 && c.Hour <= hist[i-1].Hour {
			t.Fatalf("live history cell %d is hour %d after hour %d", i, c.Hour, hist[i-1].Hour)
		}
		scored += c.Agree + c.Disagree
	}
	if d := live.Drift(); scored != d.Events {
		t.Errorf("live history scores %d classifications, the stream %d", scored, d.Events)
	}
	// The online classifier depends on offer order (ROADMAP item 1), so the
	// agreement split of an hour may differ; its cell and count may not.
	want := replayed.DriftHistory()
	if len(hist) != len(want) {
		t.Fatalf("live history has %d cells, its replay %d", len(hist), len(want))
	}
	for i, c := range hist {
		if w := want[i]; c.Hour != w.Hour || c.Agree+c.Disagree != w.Agree+w.Disagree {
			t.Errorf("history cell %d: live hour %d scores %d, replay hour %d scores %d",
				i, c.Hour, c.Agree+c.Disagree, w.Hour, w.Agree+w.Disagree)
		}
	}
}
