package observatory

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/faults"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/scenario"
)

// testRetry is a fast retry policy for loopback tests: tight delays, a
// budget generous enough to ride out a daemon restart.
func testRetry() faults.RetryPolicy {
	return faults.RetryPolicy{MaxAttempts: 60, Base: 0.01, MaxDelay: 0.1, Multiplier: 1.5, Jitter: 0.2}
}

// sequenced returns a record-frame payload: seq stamped, then body.
func sequenced(seq uint64, body ...byte) []byte {
	payload := append(make([]byte, 8), body...)
	stampSeq(payload, seq)
	return payload
}

// TestWALTornTail: a WAL cut mid-frame by a crash parses up to the tear,
// and goodLen points at the last whole frame so recovery can truncate.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	d := NewDaemon(Config{WALDir: dir})
	rs := d.newRunState("torn", 7, 4096, 100, "test")
	meta := walMeta{ID: "torn", Seed: 7, LargestCores: 4096, EndTimeS: 100, Source: "test"}
	w, err := d.openWAL(rs)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		if err := w.append(framePacket, sequenced(seq, byte(seq))); err != nil {
			t.Fatal(err)
		}
	}
	w.close(true)
	path := walPath(dir, "torn")
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	wholeLen := st.Size()

	// Simulate the crash: a frame header promising 200 payload bytes, with
	// only 3 present.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{framePacket, 0, 0, 0, 200, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	read := func() (gotMeta walMeta, recs [][]byte, goodLen int64) {
		t.Helper()
		goodLen, err := readFrameLog(path, func(typ byte, payload []byte) error {
			if typ == frameHello {
				return unmarshalStrictless(payload, &gotMeta)
			}
			recs = append(recs, bytes.Clone(payload)) // the reader reuses its buffer
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return gotMeta, recs, goodLen
	}
	gotMeta, recs, goodLen := read()
	if gotMeta != meta {
		t.Fatalf("meta = %+v, want %+v", gotMeta, meta)
	}
	if len(recs) != 10 {
		t.Fatalf("recovered %d frames, want 10", len(recs))
	}
	if goodLen != wholeLen {
		t.Fatalf("goodLen = %d, want %d (size before the torn tail)", goodLen, wholeLen)
	}
	for i, rec := range recs {
		seq, body, err := splitSeq(rec)
		if err != nil || seq != uint64(i+1) || len(body) != 1 || body[0] != byte(i+1) {
			t.Fatalf("frame %d did not round-trip: seq=%d body=%v err=%v", i, seq, body, err)
		}
	}

	// A WAL reopened after truncation keeps appending where the good
	// prefix ended.
	if err := os.Truncate(path, goodLen); err != nil {
		t.Fatal(err)
	}
	w2, err := d.openWAL(rs)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.append(framePacket, sequenced(11, 11)); err != nil {
		t.Fatal(err)
	}
	w2.close(true)
	if _, recs, _ = read(); len(recs) != 11 {
		t.Fatalf("after truncate+append: %d frames, want 11", len(recs))
	}
}

// lockedBuffer is a log sink safe to read while handlers still write.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestWALFinalSyncFailure: when the fsync a final frame forces fails,
// the daemon logs it and turns journaling off for the run — the same
// handling as any WAL append failure — and still finalizes and acks.
func TestWALFinalSyncFailure(t *testing.T) {
	var logs lockedBuffer
	d := NewDaemon(Config{WALDir: t.TempDir(), Log: log.New(&logs, "", 0)})
	addr, err := d.ListenIngest("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	p, err := DialPush(addr, Hello{Run: "nosync", Seed: 9, LargestCores: 512, EndTimeS: 100, Source: "test"}, DefaultPushOptions())
	if err != nil {
		t.Fatal(err)
	}
	pkt := &accounting.Packet{Site: "s", Seq: 1, Syms: job.NewSymbols(), Jobs: []accounting.JobRecord{{JobID: 1, Cores: 1, EndTime: 10}}}
	p.sendPacket(10, pkt)
	rs := d.run("nosync")
	deadline := time.Now().Add(10 * time.Second)
	for rs.haveSeq.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the daemon never applied the packet")
		}
		time.Sleep(time.Millisecond)
	}
	rs.wal.f.Close() // the handler is idle between frames

	if err := p.Finish(100); err != nil {
		t.Fatalf("finish: %v", err)
	}
	rs.ownMu.Lock() // waits for the handler to let go of the run
	wal := rs.wal
	rs.ownMu.Unlock()
	if wal != nil {
		t.Fatal("journaling is still on after the final frame's sync failed")
	}
	if !strings.Contains(logs.String(), "WAL append failed, journaling off") {
		t.Fatalf("the sync failure was not logged:\n%s", logs.String())
	}
	if d.RunReport("nosync") == nil {
		t.Fatal("the run did not finalize")
	}
}

// TestDaemonCrashRecoveryResume is the tentpole end-to-end: a daemon is
// killed mid-run (losing its unsynced WAL tail), a replacement recovers
// from the WAL directory and rebinds the same address, the producer
// reconnects and replays the gap, and the finished run byte-matches the
// producer's local state with zero packets lost.
func TestDaemonCrashRecoveryResume(t *testing.T) {
	walDir := t.TempDir()
	d1 := NewDaemon(Config{WALDir: walDir})
	addr, err := d1.ListenIngest("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	largest := largestCores(t)

	cfg := smallConfig(13)
	end := float64(cfg.Horizon + cfg.DrainTime)
	opts := DefaultPushOptions()
	opts.Retry = testRetry()
	p, err := DialPush(addr, Hello{
		Run: "crash", Seed: 13, LargestCores: largest, EndTimeS: end, Source: "test",
	}, opts)
	if err != nil {
		t.Fatal(err)
	}

	// A gate observer blocks the simulation after the 10th packet until
	// the replacement daemon is up, making the kill deterministically
	// mid-run: frames 1..10 straddle the crash, everything after lands on
	// the recovered daemon.
	killAt := make(chan struct{})
	restarted := make(chan struct{})
	var once sync.Once
	packetCount := 0
	gate := scenario.ObserverFunc(func(a *scenario.Attachment) {
		a.Packets = append(a.Packets, func(at des.Time, pkt *accounting.Packet) {
			packetCount++
			if packetCount == 10 {
				once.Do(func() { close(killAt) })
				<-restarted
			}
		})
	})
	cfg.Observers = append(cfg.Observers, p.Observer(nil), gate)

	type runOut struct {
		res *scenario.Result
		err error
	}
	resCh := make(chan runOut, 1)
	go func() {
		res, err := scenario.Run(cfg)
		if err == nil {
			err = p.Finish(end)
		} else {
			p.Abort()
		}
		resCh <- runOut{res, err}
	}()

	select {
	case <-killAt:
	case <-time.After(30 * time.Second):
		t.Fatal("producer never reached the kill point")
	}
	d1.Kill()

	d2 := NewDaemon(Config{WALDir: walDir})
	t.Cleanup(func() { d2.Close() })
	n, err := d2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if n != 1 || d2.Recoveries() != 1 {
		t.Fatalf("recovered %d run(s) (counter %d), want 1", n, d2.Recoveries())
	}
	if _, err := d2.ListenIngest(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	close(restarted)

	out := <-resCh
	if out.err != nil {
		t.Fatalf("pushed run across the crash: %v", out.err)
	}
	st := p.Stats()
	if st.PacketsLost != 0 {
		t.Fatalf("lost %d packets across the crash, want 0 (%+v)", st.PacketsLost, st)
	}
	if st.Reconnects == 0 {
		t.Fatal("producer never reconnected — the kill did not interrupt the session")
	}
	if p.RunID() != "crash" {
		t.Fatalf("resumed run renamed to %q", p.RunID())
	}

	// The recovered daemon's report and accounting export byte-match the
	// producer's local computation, exactly as in the no-fault path.
	cl := core.NewClassifier(core.Config{LargestCores: largest})
	rep := core.BuildReport(out.res.Central, cl.Classify(out.res.Central))
	var want bytes.Buffer
	if err := core.ModalityTable(rep).WriteText(&want); err != nil {
		t.Fatal(err)
	}
	got := d2.RunReport("crash")
	if got == nil {
		t.Fatal("recovered daemon has no final report after Finish")
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("recovered daemon report differs from producer's:\n--- daemon ---\n%s\n--- producer ---\n%s", got, want.Bytes())
	}
	var dExport, pExport bytes.Buffer
	if err := d2.RunCentralExport("crash", &dExport); err != nil {
		t.Fatal(err)
	}
	if err := out.res.Central.Export(&pExport); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dExport.Bytes(), pExport.Bytes()) {
		t.Fatal("recovered daemon's accounting export differs from the producer's")
	}
}

// TestRecoveredFinalizedRun: recovery of a WAL holding a complete run
// (final frame included) re-finalizes it and re-writes final artifacts.
func TestRecoveredFinalizedRun(t *testing.T) {
	walDir := t.TempDir()
	finalDir := t.TempDir()
	d1 := NewDaemon(Config{WALDir: walDir, FinalDir: finalDir})
	addr, err := d1.ListenIngest("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, p, _ := pushRun(t, addr, 17, "done")
	wantReport := append([]byte(nil), d1.RunReport(p.RunID())...)
	d1.Kill()
	txt := filepath.Join(finalDir, "done.modality.txt")
	if err := os.Remove(txt); err != nil {
		t.Fatal(err)
	}

	d2 := NewDaemon(Config{WALDir: walDir, FinalDir: finalDir})
	t.Cleanup(func() { d2.Close() })
	if n, err := d2.Recover(); err != nil || n != 1 {
		t.Fatalf("recover = (%d, %v), want (1, nil)", n, err)
	}
	got := d2.RunReport("done")
	if !bytes.Equal(got, wantReport) {
		t.Fatal("recovered report differs from the pre-crash report")
	}
	onDisk, err := os.ReadFile(txt)
	if err != nil {
		t.Fatalf("recovery did not re-write final artifacts: %v", err)
	}
	if !bytes.Equal(onDisk, wantReport) {
		t.Fatal("re-written final artifact differs from the pre-crash report")
	}
}

// TestGracefulShutdownDrains: Shutdown with a grace window lets an
// in-flight session finish, then returns cleanly; the daemon refuses new
// work afterwards.
func TestGracefulShutdownDrains(t *testing.T) {
	finalDir := t.TempDir()
	d := NewDaemon(Config{FinalDir: finalDir})
	addr, err := d.ListenIngest("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, p, _ := pushRun(t, addr, 19, "drain")
	if err := d.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := os.Stat(filepath.Join(finalDir, p.RunID()+".modality.txt")); err != nil {
		t.Fatalf("final artifact missing after shutdown: %v", err)
	}
	noRetry := DefaultPushOptions()
	noRetry.Retry.MaxAttempts = -1
	if _, err := DialPush(addr, Hello{Run: "late", Seed: 1}, noRetry); err == nil {
		t.Fatal("daemon accepted a session after Shutdown")
	}
}
