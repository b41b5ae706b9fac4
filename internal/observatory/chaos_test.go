package observatory

import (
	"bytes"
	"testing"
	"time"

	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/scenario"
)

// runThroughChaos drives one pushed run through a chaos proxy with the
// given fault schedule and requires lossless completion.
func runThroughChaos(t *testing.T, seed uint64, id string, cc ChaosConfig) (*scenario.Result, *Pusher, *chaosProxy, *Daemon) {
	t.Helper()
	d, addr := startDaemon(t)
	proxy, err := newChaosProxy(addr, cc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)

	cfg := smallConfig(seed)
	end := float64(cfg.Horizon + cfg.DrainTime)
	opts := DefaultPushOptions()
	opts.Retry = testRetry()
	p, err := DialPush(proxy.Addr(), Hello{
		Run: id, Seed: seed, LargestCores: largestCores(t), EndTimeS: end, Source: "test",
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observers = append(cfg.Observers, p.Observer(nil))
	res, err := scenario.Run(cfg)
	if err != nil {
		p.Abort()
		t.Fatal(err)
	}
	if err := p.Finish(end); err != nil {
		t.Fatalf("finish under chaos: %v", err)
	}
	if st := p.Stats(); st.PacketsLost != 0 {
		t.Fatalf("lost %d packets under chaos, want 0 (%+v)", st.PacketsLost, st)
	}
	return res, p, proxy, d
}

// assertDaemonMatchesProducer re-runs the byte-match contract from the
// fault-free path: the daemon's report and accounting export must equal
// the producer's local computation exactly.
func assertDaemonMatchesProducer(t *testing.T, d *Daemon, p *Pusher, res *scenario.Result) {
	t.Helper()
	cl := core.NewClassifier(core.Config{LargestCores: largestCores(t)})
	rep := core.BuildReport(res.Central, cl.Classify(res.Central))
	var want bytes.Buffer
	if err := core.ModalityTable(rep).WriteText(&want); err != nil {
		t.Fatal(err)
	}
	got := d.RunReport(p.RunID())
	if got == nil {
		t.Fatalf("daemon has no final report for %q", p.RunID())
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("daemon report differs from producer's under chaos:\n--- daemon ---\n%s\n--- producer ---\n%s", got, want.Bytes())
	}
	var dExport, pExport bytes.Buffer
	if err := d.RunCentralExport(p.RunID(), &dExport); err != nil {
		t.Fatal(err)
	}
	if err := res.Central.Export(&pExport); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dExport.Bytes(), pExport.Bytes()) {
		t.Fatal("daemon accounting export differs from the producer's under chaos")
	}
}

// TestChaosDropHeavy: repeated mid-frame disconnects force multiple
// reconnect+replay cycles; the run still lands byte-exact, and the pushed
// run itself stays byte-identical to a plain same-seed run.
func TestChaosDropHeavy(t *testing.T) {
	res, p, proxy, d := runThroughChaos(t, 31, "chaos-drop", ChaosConfig{
		Seed:         1001,
		CutAfterMean: 8 * 1024,
		MaxCuts:      6,
	})
	if proxy.Cuts() == 0 {
		t.Fatal("chaos proxy injected no cuts — the schedule exercised nothing")
	}
	if st := p.Stats(); st.Reconnects == 0 || st.Replayed == 0 {
		t.Fatalf("no reconnect replayed a frame despite %d cuts (%+v)", proxy.Cuts(), st)
	}
	assertDaemonMatchesProducer(t, d, p, res)

	plain, err := scenario.Run(smallConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := res.Central.Export(&a); err != nil {
		t.Fatal(err)
	}
	if err := plain.Central.Export(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("chaos-pushed run's accounting export differs from the plain same-seed run")
	}
}

// TestChaosStallPartialWrite: heavy re-segmentation plus injected stalls
// tears every frame across many small writes; framing must reassemble it
// all without loss.
func TestChaosStallPartialWrite(t *testing.T) {
	res, p, _, d := runThroughChaos(t, 32, "chaos-stall", ChaosConfig{
		Seed:        1002,
		SegmentMean: 7,
		StallProb:   0.002,
		Stall:       time.Millisecond,
	})
	assertDaemonMatchesProducer(t, d, p, res)
}

// TestChaosTornMixed: cuts, partial writes, and stalls together — the
// closest schedule to a genuinely bad network.
func TestChaosTornMixed(t *testing.T) {
	res, p, proxy, d := runThroughChaos(t, 33, "chaos-mixed", ChaosConfig{
		Seed:         1003,
		CutAfterMean: 16 * 1024,
		MaxCuts:      4,
		SegmentMean:  64,
		StallProb:    0.001,
		Stall:        time.Millisecond,
	})
	if proxy.Cuts() == 0 {
		t.Fatal("mixed schedule injected no cuts")
	}
	assertDaemonMatchesProducer(t, d, p, res)
}
