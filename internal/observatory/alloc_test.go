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
		// 489–504 B/record measured. The daemon republishes a live run's
		// payloads at most every 100 ms of wall time, about 12 B/record
		// each, so the ceiling leaves room for four more publishes: a
		// push that takes half a second instead of the 40 ms measured.
		const ceiling = 560 // B/record
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
		if b > ceiling {
			t.Errorf("%.1f B/record, budget %d", b, ceiling)
		}
	})
}
