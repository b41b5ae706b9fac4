package observatory

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/job"
)

// TestFinishAbortIdempotence: Finish and Abort are safe in either order
// and on repeat — the error paths that call them cannot know what already
// ran — and either one removes the spill journal.
func TestFinishAbortIdempotence(t *testing.T) {
	_, addr := startDaemon(t)

	// Finish, then Abort twice: the pusher is already torn down.
	p, err := DialPush(addr, Hello{Run: "idem-a", Seed: 1}, DefaultPushOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Finish(100); err != nil {
		t.Fatalf("finish: %v", err)
	}
	p.Abort()
	p.Abort()
	if _, err := os.Stat(p.spill.path); err == nil {
		t.Fatalf("spill journal %s still exists after Finish", p.spill.path)
	}

	// Abort, then Finish: Finish must not re-drive the session, only
	// report its (absent) error.
	q, err := DialPush(addr, Hello{Run: "idem-b", Seed: 1}, DefaultPushOptions())
	if err != nil {
		t.Fatal(err)
	}
	q.Abort()
	if _, err := os.Stat(q.spill.path); err == nil {
		t.Fatalf("spill journal %s still exists after Abort", q.spill.path)
	}
	if err := q.Finish(100); err != nil {
		t.Fatalf("finish after abort: %v", err)
	}
	q.Abort()
}

// TestHelloRejectsBadRunID: a malformed run identity is refused with the
// typed hello error (no retries, no uniquified garbage).
func TestHelloRejectsBadRunID(t *testing.T) {
	d, addr := startDaemon(t)
	start := time.Now()
	_, err := DialPush(addr, Hello{Run: "../etc/evil", Seed: 1}, DefaultPushOptions())
	if !errors.Is(err, ErrBadHello) {
		t.Fatalf("bad run ID: want ErrBadHello, got %v", err)
	}
	if !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("rejection reason missing from %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("rejection was retried (%v elapsed); hello errors must be permanent", elapsed)
	}
	if ids := d.RunIDs(); len(ids) != 0 {
		t.Fatalf("rejected hello registered a run: %v", ids)
	}
}

// TestHelloRejectsOversize: a hello frame above the dedicated cap is
// answered with an error frame before the daemon allocates for it.
func TestHelloRejectsOversize(t *testing.T) {
	d, addr := startDaemon(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(wireMagicStr)); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameHello, make([]byte, maxHelloPayload+1)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := readFrame(conn)
	if err != nil {
		t.Fatalf("want error frame, got read failure: %v", err)
	}
	if typ != frameError {
		t.Fatalf("want frame %q, got %q (%q)", frameError, typ, payload)
	}
	if ids := d.RunIDs(); len(ids) != 0 {
		t.Fatalf("oversized hello registered a run: %v", ids)
	}
}

// TestResumeSeedMismatchRejected: resuming an existing run with the wrong
// seed is refused — replaying one run's frames into another would corrupt
// both.
func TestResumeSeedMismatchRejected(t *testing.T) {
	_, addr := startDaemon(t)
	p, err := DialPush(addr, Hello{Run: "owner", Seed: 7}, DefaultPushOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Abort()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(wireMagicStr)); err != nil {
		t.Fatal(err)
	}
	h := Hello{Schema: helloSchema, Run: "owner", Seed: 8, Resume: true}
	if err := writeFrame(conn, frameHello, marshalJSON(&h)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := readFrame(conn)
	if err != nil {
		t.Fatalf("want error frame, got read failure: %v", err)
	}
	if typ != frameError || !strings.Contains(string(payload), "seed mismatch") {
		t.Fatalf("want seed-mismatch error frame, got %q (%q)", typ, payload)
	}
}

// bufConn is a net.Conn whose writes land in a buffer.
type bufConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *bufConn) Write(b []byte) (int, error) { return c.buf.Write(b) }

// TestSpillJournalReplay: the spill journal starts afresh over whatever
// its path held, and replay re-sends exactly the frames above the resume
// offset, in order and byte for byte.
func TestSpillJournalReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.spill")
	if err := os.WriteFile(path, []byte("stale bytes from an earlier session"), 0o644); err != nil {
		t.Fatal(err)
	}
	conn := &bufConn{}
	p := &Pusher{hello: Hello{Run: "spill", Seed: 3}, opts: PushOptions{SpillPath: path}, conn: conn}
	spill, err := p.openSpill()
	if err != nil {
		t.Fatal(err)
	}
	p.spill = spill
	var sent [][]byte
	for seq := uint64(1); seq <= 6; seq++ {
		payload := recordFrame(float64(seq))
		stampSeq(payload, seq)
		if err := p.spill.append(framePacket, payload); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, payload)
		p.nextSeq = seq
	}
	if err := p.replayFrom(4); err != nil {
		t.Fatal(err)
	}
	for _, want := range sent[4:] {
		typ, got, err := readFrame(&conn.buf)
		if err != nil || typ != framePacket || !bytes.Equal(got, want) {
			t.Fatalf("replayed frame = (%q, %v, %v), want (%q, %v, nil)", typ, got, err, framePacket, want)
		}
	}
	if conn.buf.Len() != 0 || p.Stats().Replayed != 2 {
		t.Fatalf("replay(4) sent %d extra bytes and counted %d frames, want 0 and 2", conn.buf.Len(), p.Stats().Replayed)
	}
	p.spill.close(false)
}

// brokenSpillPush dials a pusher, closes its spill journal's file (and,
// with cut, its connection), and sends one packet frame larger than the
// journal's write buffer, so the spill append fails at once.
func brokenSpillPush(t *testing.T, addr, id string, cut bool) *Pusher {
	t.Helper()
	opts := DefaultPushOptions()
	opts.Retry = testRetry()
	p, err := DialPush(addr, Hello{Run: id, Seed: 5, LargestCores: 512, EndTimeS: 100, Source: "test"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	p.spill.f.Close()
	if cut {
		p.conn.Close() // the packet's write fails; the reconnect must replay it
	}
	syms := job.NewSymbols()
	pkt := &accounting.Packet{Site: "s", Seq: 1, Syms: syms}
	for i := 0; i < 400; i++ {
		pkt.Jobs = append(pkt.Jobs, accounting.JobRecord{JobID: int64(i + 1), Cores: 1, EndTime: 50,
			User: syms.Intern(fmt.Sprintf("user-%03d", i)), Project: syms.Intern("TG-spill")})
	}
	p.sendPacket(50, pkt)
	return p
}

// TestSpillFailureBreaksOnlyReplay: a failed spill append leaves the live
// session running — a push that never reconnects finishes cleanly — but
// a later reconnect that needs replay breaks the push for good, and the
// run reads as lossy.
func TestSpillFailureBreaksOnlyReplay(t *testing.T) {
	_, addr := startDaemon(t)

	p := brokenSpillPush(t, addr, "spill-live", false)
	if err := p.Finish(100); err != nil {
		t.Fatalf("finish with a broken spill journal and no reconnect: %v", err)
	}
	if p.spillErr == nil {
		t.Fatal("the spill append did not fail; the test exercised nothing")
	}
	if st := p.Stats(); p.Lossy() || st.Reconnects != 0 {
		t.Fatalf("no-reconnect push: lossy %v, %+v; want clean", p.Lossy(), st)
	}

	q := brokenSpillPush(t, addr, "spill-replay", true)
	err := q.Finish(100)
	if err == nil || q.Err() == nil || !q.Lossy() {
		t.Fatalf("replay over a broken spill journal: Finish %v, Err %v, Lossy %v; want an error and a lossy run",
			err, q.Err(), q.Lossy())
	}
	if !strings.Contains(err.Error(), "spill journal failed") {
		t.Fatalf("error does not name the spill journal: %v", err)
	}
}

// TestDaemonKeepsNoFramePayload: the daemon reads every frame of a
// connection into one buffer, so whatever it publishes from a frame must
// be a copy. A metrics frame followed on the same connection by a packet
// frame at least as large must leave the stored exposition byte for
// byte as it was sent.
func TestDaemonKeepsNoFramePayload(t *testing.T) {
	d, addr := startDaemon(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte(wireMagicStr)); err != nil {
		t.Fatal(err)
	}
	h := Hello{Schema: helloSchema, Run: "keep", Seed: 1, LargestCores: 512, EndTimeS: 100}
	if err := writeFrame(conn, frameHello, marshalJSON(&h)); err != nil {
		t.Fatal(err)
	}
	if typ, payload, err := readFrame(conn); err != nil || typ != frameHelloAck {
		t.Fatalf("hello ack = (%q, %q, %v)", typ, payload, err)
	}

	om := []byte("# TYPE tg_jobs_finished_total counter\ntg_jobs_finished_total 40\n# EOF\n")
	sent := bytes.Clone(om)
	syms := job.NewSymbols()
	pkt := &accounting.Packet{Site: "s", Seq: 1, Syms: syms}
	for i := range 4 {
		pkt.Jobs = append(pkt.Jobs, accounting.JobRecord{JobID: int64(i + 1), Cores: 1, EndTime: 50,
			User: syms.Intern(fmt.Sprintf("user-%d", i)), Project: syms.Intern("TG-keep")})
	}
	packet := pkt.AppendWire(recordFrame(50))
	stampSeq(packet, 1)
	if len(packet) < len(om) {
		t.Fatalf("packet frame (%d bytes) is smaller than the metrics frame (%d)", len(packet), len(om))
	}
	final := recordFrame(100)
	stampSeq(final, 2)
	for _, f := range []struct {
		typ     byte
		payload []byte
	}{{frameMetrics, om}, {framePacket, packet}, {frameFinal, final}} {
		if err := writeFrame(conn, f.typ, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	if typ, _, err := readFrame(conn); err != nil || typ != frameFinalAck {
		t.Fatalf("final ack = (%q, %v)", typ, err)
	}
	var got []byte
	if p := d.run("keep").metricsOM.Load(); p != nil {
		got = *p
	}
	if !bytes.Equal(got, sent) {
		t.Fatalf("stored exposition changed after the next frame:\n got %q\nwant %q", got, sent)
	}
}
