//go:build !race

package observatory

import (
	"bytes"
	"path/filepath"
	"runtime"
	"testing"
)

// TestPushPathAllocs pins the push path's allocations. A packet tap that
// finds a free buffer allocates nothing once the buffers have grown, and
// neither does the writer that journals and sends the frame, since the
// tap and writer run together under AllocsPerRun. A frame read into a
// buffer that holds it allocates nothing either. Pushing quick seed 7
// end to end into an in-process daemon with a WAL costs at most its
// ceiling in heap bytes per record. The race build allocates more, and
// leaves the test out.
func TestPushPathAllocs(t *testing.T) {
	run := recordQuickRun(t)

	t.Run("packet tap", func(t *testing.T) {
		p := newPusher("", Hello{Run: "allocs", Seed: run.seed}, PushOptions{SpillPath: filepath.Join(t.TempDir(), "allocs.spill")})
		p.conn = discardConn{}
		if err := p.start(); err != nil {
			t.Fatal(err)
		}
		defer p.Abort()
		rp := run.packets[len(run.packets)/2]
		tap := func() { p.sendPacket(rp.at, rp.pkt) }
		for range 2 * pushPacketBufs {
			tap() // grow every buffer to the packet's size
		}
		if n := testing.AllocsPerRun(200, tap); n != 0 {
			t.Errorf("a warm packet tap makes %v allocations, want 0", n)
		}
	})

	t.Run("frame read", func(t *testing.T) {
		var wire bytes.Buffer
		rp := run.packets[len(run.packets)/2]
		if err := writeFrame(&wire, framePacket, rp.pkt.AppendWire(recordFrame(float64(rp.at)))); err != nil {
			t.Fatal(err)
		}
		data := wire.Bytes()
		r := bytes.NewReader(data)
		buf := make([]byte, len(data))
		n := testing.AllocsPerRun(200, func() {
			r.Reset(data)
			if _, _, err := readFrameInto(r, maxFramePayload, &buf); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("a frame read into a large enough buffer makes %v allocations, want 0", n)
		}
	})

	t.Run("quick run end to end", func(t *testing.T) {
		// 488.5–490.4 B/record measured, also with a second push running
		// beside it: the daemon publishes on a count of packet frames, so
		// a slow host does no extra work.
		const ceiling = 510 // B/record
		d := NewDaemon(Config{WALDir: t.TempDir()})
		addr, err := d.ListenIngest("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		opts := DefaultPushOptions()
		opts.SpillPath = filepath.Join(t.TempDir(), "quick.spill")
		p, err := DialPush(addr, Hello{Run: "quick", Seed: run.seed, LargestCores: run.largest, EndTimeS: run.end, Source: "test"}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, rp := range run.packets {
			p.sendPacket(rp.at, rp.pkt)
		}
		if err := p.Finish(run.end); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if p.Lossy() || !bytes.Equal(d.RunReport(p.RunID()), run.table) {
			t.Fatalf("lossy %v, or the daemon's report differs from the producer's", p.Lossy())
		}
		b := float64(after.TotalAlloc-before.TotalAlloc) / float64(run.records)
		t.Logf("%.1f B/record over %d records in %d packets", b, run.records, len(run.packets))
		// The first packet frame publishes and so does the final; a
		// finalized run does not publish again when its producer leaves.
		if n := d.run(p.RunID()).publishes.Load(); n != 2 {
			t.Errorf("the daemon published the run %d times, want 2", n)
		}
		if b > ceiling {
			t.Errorf("%.1f B/record, budget %d", b, ceiling)
		}
	})
}
