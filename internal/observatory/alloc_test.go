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
// ceiling in heap bytes per record, both from an empty frame-buffer list
// and as the second push of a process. The race build allocates more,
// and leaves the test out.
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

	// pushQuick pushes the recorded run into d as run id and returns the
	// heap bytes the push allocated per record. It waits until the
	// daemon's handler for the connection has released the run, so the
	// connection's read buffer is back in the frame-buffer list, after
	// the pusher's eight, before the next push. The daemon publishes on a
	// count of packet frames, so a slow host does no extra work.
	pushQuick := func(t *testing.T, d *Daemon, addr, id string) float64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		opts := DefaultPushOptions()
		opts.SpillPath = filepath.Join(t.TempDir(), id+".spill")
		p, err := DialPush(addr, Hello{Run: id, Seed: run.seed, LargestCores: run.largest, EndTimeS: run.end, Source: "test"}, opts)
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
		rs := d.run(p.RunID())
		rs.ownMu.Lock()
		rs.ownMu.Unlock()
		// The first packet frame publishes and so does the final; a
		// finalized run does not publish again when its producer leaves.
		if n := rs.publishes.Load(); n != 2 {
			t.Errorf("the daemon published the run %d times, want 2", n)
		}
		b := float64(after.TotalAlloc-before.TotalAlloc) / float64(run.records)
		t.Logf("%.1f B/record over %d records in %d packets", b, run.records, len(run.packets))
		return b
	}
	newDaemon := func(t *testing.T) (*Daemon, string) {
		t.Helper()
		d := NewDaemon(Config{WALDir: t.TempDir()})
		addr, err := d.ListenIngest("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d, addr
	}

	t.Run("quick run end to end", func(t *testing.T) {
		// The first push in a process, whose frame-buffer list is empty:
		// every buffer is grown from nothing. 441.3–442.9 B/record
		// measured.
		const ceiling = 460 // B/record
		takeAllFrameBufs()
		d, addr := newDaemon(t)
		if b := pushQuick(t, d, addr, "quick"); b > ceiling {
			t.Errorf("%.1f B/record, budget %d", b, ceiling)
		}
	})

	t.Run("second push", func(t *testing.T) {
		// The next push in the same process takes the buffers the first
		// gave back, grown to the packets they carried, and so does the
		// daemon's next connection. 362.3–367.6 B/record measured; a
		// push that grows its buffers afresh costs about 441.
		const ceiling = 380 // B/record
		takeAllFrameBufs()
		d, addr := newDaemon(t)
		pushQuick(t, d, addr, "first")
		if b := pushQuick(t, d, addr, "second"); b > ceiling {
			t.Errorf("%.1f B/record, budget %d", b, ceiling)
		}
	})
}
