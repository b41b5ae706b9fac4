package observatory

import (
	"bytes"
	"encoding/binary"
	"errors"
	"github.com/tgsim/tgmod/internal/job"
	"io"
	"strings"
	"testing"

	"github.com/tgsim/tgmod/internal/accounting"
)

// TestFrameRoundTrip: every frame type survives write → read unchanged.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := map[byte][]byte{
		frameHello:    []byte(`{"schema":1,"run":"a","seed":7}`),
		framePacket:   {1, 2, 3, 4, 5, 6, 7, 8, 9},
		frameSnapshot: []byte(`{"progress":0.5}`),
		frameMetrics:  []byte("# EOF\n"),
		frameFinal:    recordFrame(432000),
		frameHelloAck: []byte(`{"run":"a"}`),
		frameFinalAck: nil,
	}
	order := []byte{frameHello, framePacket, frameSnapshot, frameMetrics, frameFinal, frameHelloAck, frameFinalAck}
	for _, typ := range order {
		if err := writeFrame(&buf, typ, payloads[typ]); err != nil {
			t.Fatalf("write %q: %v", typ, err)
		}
	}
	for _, want := range order {
		typ, payload, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("read %q: %v", want, err)
		}
		if typ != want {
			t.Fatalf("read type %q, want %q", typ, want)
		}
		if !bytes.Equal(payload, payloads[want]) {
			t.Fatalf("frame %q payload mismatch", want)
		}
	}
	if _, _, err := readFrame(&buf); err != io.EOF {
		t.Fatalf("drained stream: want io.EOF, got %v", err)
	}
}

// TestReadFrameRejectsOversize: a corrupt length prefix cannot drive an
// unbounded allocation.
func TestReadFrameRejectsOversize(t *testing.T) {
	var hdr [5]byte
	hdr[0] = framePacket
	binary.BigEndian.PutUint32(hdr[1:], maxFramePayload+1)
	_, _, err := readFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversize frame: want ErrBadFrame, got %v", err)
	}
}

// TestReadFrameTruncated: a partial payload is a bad frame, not EOF.
func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameSnapshot, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, _, err := readFrame(bytes.NewReader(trunc)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated frame: want ErrBadFrame, got %v", err)
	}
}

// TestReadMagic: wrong preambles are rejected.
func TestReadMagic(t *testing.T) {
	if err := readMagic(bytes.NewReader([]byte(wireMagicStr))); err != nil {
		t.Fatalf("good magic rejected: %v", err)
	}
	if err := readMagic(bytes.NewReader([]byte("NOPE"))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad magic: want ErrBadFrame, got %v", err)
	}
	if err := readMagic(bytes.NewReader([]byte("TG"))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short magic: want ErrBadFrame, got %v", err)
	}
}

// TestPacketFrameRoundTrip: the packet frame preserves both the flush
// time and the accounting wire bytes exactly.
func TestPacketFrameRoundTrip(t *testing.T) {
	syms := job.NewSymbols()
	sym := syms.Intern
	pkt := &accounting.Packet{Site: "ncsa-abe", Seq: 42, Syms: syms}
	pkt.Jobs = append(pkt.Jobs, accounting.JobRecord{
		JobID: 1, User: sym("u1"), Project: sym("TG-1"), Site: sym("ncsa-abe"),
		Cores: 64, WallSeconds: 3600, NUs: 12.5,
	})
	stamped := pkt.AppendWire(recordFrame(86400.5))
	stampSeq(stamped, 42)
	seq, payload, err := splitSeq(stamped)
	if err != nil || seq != 42 {
		t.Fatalf("splitSeq = (%d, %v), want (42, nil)", seq, err)
	}
	at, wire, err := splitPacketFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := accounting.DecodePacket(wire, job.NewSymbols())
	if err != nil {
		t.Fatal(err)
	}
	if at != 86400.5 {
		t.Fatalf("at = %v, want 86400.5", at)
	}
	if got.Site != pkt.Site || got.Seq != pkt.Seq || len(got.Jobs) != 1 || got.Jobs[0].JobID != 1 {
		t.Fatalf("packet did not round-trip: %+v", got)
	}
	if _, _, err := splitPacketFrame([]byte{1, 2, 3}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short packet frame: want ErrBadFrame, got %v", err)
	}
}

// TestRejectedPacketLeavesRunTable: a packet frame the run's database
// rejects (truncated, or a gap in the site's sequence) interns none of its
// strings into the run's table, and the stream processor adopts that
// table with the first packet it is offered.
func TestRejectedPacketLeavesRunTable(t *testing.T) {
	rs := NewDaemon(Config{}).newRunState("r", 1, 512, 0, "test")
	frame := func(seq uint64, user string) []byte {
		syms := job.NewSymbols()
		pkt := &accounting.Packet{Site: "s", Seq: seq, Syms: syms,
			Jobs: []accounting.JobRecord{{JobID: int64(seq), Cores: 1, EndTime: float64(seq), User: syms.Intern(user)}}}
		return pkt.AppendWire(recordFrame(float64(seq)))[8:]
	}
	n := rs.central.Syms().Len()
	good := frame(1, "alice")
	for _, bad := range [][]byte{good[:len(good)-1], frame(2, "gap")} {
		if err := rs.applyPacket(1, bad); err == nil {
			t.Fatal("a bad packet frame was applied")
		}
	}
	if got := rs.central.Syms().Len(); got != n {
		t.Fatalf("rejected frames grew the run's table from %d to %d strings", n, got)
	}
	if err := rs.applyPacket(1, good); err != nil {
		t.Fatal(err)
	}
	if rs.proc.Syms() != rs.central.Syms() || rs.central.Syms().Len() != n+1 || rs.proc.Ingested() != 1 {
		t.Fatalf("after the good frame: processor shares the table %v, %d strings (want %d), %d records offered",
			rs.proc.Syms() == rs.central.Syms(), rs.central.Syms().Len(), n+1, rs.proc.Ingested())
	}
}

// TestFinalFrameRoundTrip: the end-of-run clock survives the frame.
func TestFinalFrameRoundTrip(t *testing.T) {
	end, err := decodeFinalFrame(recordFrame(432000)[8:])
	if err != nil || end != 432000 {
		t.Fatalf("final frame: got (%v, %v), want (432000, nil)", end, err)
	}
	if _, err := decodeFinalFrame([]byte{1}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short final frame: want ErrBadFrame, got %v", err)
	}
}

// TestSeqSeal: a sequence number stamped into a payload's reserved
// bytes round-trips without touching the body, and short sequenced
// payloads are typed bad frames.
func TestSeqSeal(t *testing.T) {
	inner := []byte("record-body")
	payload := append(make([]byte, 8), inner...)
	stampSeq(payload, 987654321)
	seq, body, err := splitSeq(payload)
	if err != nil || seq != 987654321 || !bytes.Equal(body, inner) {
		t.Fatalf("splitSeq = (%d, %q, %v), want (987654321, %q, nil)", seq, body, err, inner)
	}
	if _, _, err := splitSeq([]byte{1, 2, 3}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short sequenced frame: want ErrBadFrame, got %v", err)
	}
}

// TestValidateRunID: the daemon admits only file- and label-safe run
// identities, rejecting the rest with the typed hello error.
func TestValidateRunID(t *testing.T) {
	for _, ok := range []string{"", "a", "fleet-r02", "A.b_c-9"} {
		if err := validateRunID(ok); err != nil {
			t.Errorf("validateRunID(%q) = %v, want nil", ok, err)
		}
	}
	long := strings.Repeat("x", maxRunIDLen+1)
	for _, bad := range []string{"a b", "../etc/passwd", "run#2", "naïve", long} {
		if err := validateRunID(bad); !errors.Is(err, ErrBadHello) {
			t.Errorf("validateRunID(%q) = %v, want ErrBadHello", bad, err)
		}
	}
}

// TestReadFrameLimited: the hello cap rejects before allocating.
func TestReadFrameLimited(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameHello, make([]byte, maxHelloPayload+1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFrameLimited(&buf, maxHelloPayload); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized hello: want ErrBadFrame, got %v", err)
	}
}

// FuzzReadFrame: torn, short-read, and corrupt-length inputs must never
// panic and must always yield a clean EOF or a typed ErrBadFrame; frames
// that do parse must re-encode to a prefix of the input.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	packet := append(make([]byte, 8), 1, 2, 3, 4, 5, 6, 7, 8, 9)
	stampSeq(packet, 1)
	writeFrame(&seed, framePacket, packet)
	f.Add(seed.Bytes())
	final := recordFrame(432000)
	stampSeq(final, 2)
	writeFrame(&seed, frameFinal, final)
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()-3]) // torn mid-payload
	f.Add([]byte{})
	f.Add([]byte{framePacket})                         // torn mid-header
	f.Add([]byte{framePacket, 0xff, 0xff, 0xff, 0xff}) // oversize length
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			typ, payload, err := readFrame(r)
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrBadFrame) {
					t.Fatalf("readFrame error is neither io.EOF nor ErrBadFrame: %v", err)
				}
				return
			}
			var re bytes.Buffer
			if werr := writeFrame(&re, typ, payload); werr != nil {
				t.Fatalf("parsed frame does not re-encode: %v", werr)
			}
		}
	})
}
