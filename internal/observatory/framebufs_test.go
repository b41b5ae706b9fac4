package observatory

import (
	"testing"
	"time"
)

// takeAllFrameBufs empties the frame-buffer list and returns what it
// held.
func takeAllFrameBufs() [][]byte {
	var bufs [][]byte
	for {
		select {
		case buf := <-frameBufs:
			bufs = append(bufs, buf)
		default:
			return bufs
		}
	}
}

// poisoned reports whether every byte of buf up to its capacity is
// framePoison.
func poisoned(buf []byte) bool {
	for _, c := range buf[:cap(buf)] {
		if c != framePoison {
			return false
		}
	}
	return true
}

// TestGiveFrameBufPoisons: a given-back buffer is overwritten with
// poison up to its capacity and kept; one larger than maxKeptFrameBuf,
// and one given to a full list, goes to the garbage collector.
func TestGiveFrameBufPoisons(t *testing.T) {
	takeAllFrameBufs()
	defer takeAllFrameBufs()

	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i)
	}
	giveFrameBuf(buf[:10])
	got := takeFrameBuf()
	if cap(got) != cap(buf) || &got[:1][0] != &buf[0] {
		t.Fatalf("took a %d-byte buffer back, want the given %d-byte one", cap(got), cap(buf))
	}
	if !poisoned(got) {
		t.Fatal("a given-back buffer still holds its bytes")
	}

	big := make([]byte, maxKeptFrameBuf+1)
	giveFrameBuf(big)
	if !poisoned(big) || len(frameBufs) != 0 {
		t.Fatalf("an oversized buffer: poisoned %v, list holds %d; want poisoned and not kept", poisoned(big), len(frameBufs))
	}

	for range cap(frameBufs) + 1 {
		giveFrameBuf(make([]byte, 64))
	}
	if len(frameBufs) != cap(frameBufs) {
		t.Fatalf("list holds %d buffers after %d gives, want its capacity %d", len(frameBufs), cap(frameBufs)+1, cap(frameBufs))
	}
}

// TestPusherGivesBuffersBack: however a push ends — finished, aborted,
// broken past its spill journal, or finished through a chaos proxy that
// cut it several times — every one of its pushPacketBufs buffers is back
// in the frame-buffer list, poisoned, once the daemon has let go of its
// connections. Each case lends the pusher marked buffers through the
// list and looks for them afterwards.
func TestPusherGivesBuffersBack(t *testing.T) {
	run := recordQuickRun(t)
	for _, tc := range []struct {
		name string
		push func(t *testing.T) (*Pusher, *Daemon)
	}{
		{"finish", func(t *testing.T) (*Pusher, *Daemon) {
			d, addr := startDaemon(t)
			p, err := DialPush(addr, Hello{Run: "bufs-finish", Seed: run.seed, LargestCores: run.largest, EndTimeS: run.end}, DefaultPushOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, rp := range run.packets {
				p.sendPacket(rp.at, rp.pkt)
			}
			if err := p.Finish(run.end); err != nil {
				t.Fatal(err)
			}
			return p, d
		}},
		{"abort", func(t *testing.T) (*Pusher, *Daemon) {
			d, addr := startDaemon(t)
			p, err := DialPush(addr, Hello{Run: "bufs-abort", Seed: run.seed, LargestCores: run.largest, EndTimeS: run.end}, DefaultPushOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, rp := range run.packets[:len(run.packets)/2] {
				p.sendPacket(rp.at, rp.pkt)
			}
			p.Abort()
			return p, d
		}},
		{"broken push", func(t *testing.T) (*Pusher, *Daemon) {
			d, addr := startDaemon(t)
			p := brokenSpillPush(t, addr, "bufs-broken", true)
			if err := p.Finish(100); err == nil || !p.Lossy() {
				t.Fatalf("Finish %v, Lossy %v; want an error and a lossy run", err, p.Lossy())
			}
			return p, d
		}},
		{"chaos", func(t *testing.T) (*Pusher, *Daemon) {
			_, p, proxy, d := runThroughChaos(t, 31, "bufs-chaos", ChaosConfig{Seed: 1001, CutAfterMean: 8 * 1024, MaxCuts: 6})
			if proxy.Cuts() == 0 {
				t.Fatal("chaos proxy injected no cuts — the schedule exercised nothing")
			}
			return p, d
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			takeAllFrameBufs()
			lent := make(map[*byte]bool, pushPacketBufs)
			for range pushPacketBufs {
				// Larger than any packet frame here, so no buffer is
				// replaced by a grown one.
				buf := make([]byte, 256<<10)
				lent[&buf[0]] = true
				giveFrameBuf(buf)
			}
			p, d := tc.push(t)
			if n := len(p.free); n != 0 {
				t.Errorf("the ended pusher still holds %d buffers", n)
			}
			if err := d.Shutdown(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			for _, buf := range takeAllFrameBufs() {
				if !poisoned(buf) {
					t.Errorf("a %d-byte buffer in the list is not poisoned", cap(buf))
				}
				delete(lent, &buf[:1][0])
			}
			if len(lent) != 0 {
				t.Errorf("%d of the pusher's %d buffers are not back in the list", len(lent), pushPacketBufs)
			}
		})
	}
}
