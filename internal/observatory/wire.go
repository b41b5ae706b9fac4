// Package observatory is the fleet-wide telemetry plane: a long-lived
// daemon (cmd/tgobsd) that ingests telemetry pushed over TCP or Unix
// sockets from any number of concurrent producers — single tgsim runs,
// replication fleets, replays — and serves a unified multi-run console
// with per-run drill-down and cross-run federation.
//
// The wire protocol is deliberately thin: one magic preamble per
// connection, then length-prefixed frames. Accounting packets reuse the
// binary accounting wire codec unchanged (the daemon decodes exactly the
// bytes a site ledger flushes), progress snapshots and the hello handshake
// are framed JSON, and metric expositions are framed OpenMetrics text.
// Producer → daemon frames are hello, packet, snapshot, metrics, and
// final; the daemon answers hello and final with acks so producers know
// their assigned run ID and that the final report has been built.
//
// Determinism contract: the push client (Pusher) taps only the existing
// zero-perturbation observer seams — the accounting packet tap and the
// snapshot sink — and schedules no kernel events, so a run with -push
// attached is byte-identical to the same seed without it. The daemon
// rebuilds each run's accounting database by ingesting pushed packets in
// arrival order (TCP preserves the producer's flush order), so its final
// per-run modality report byte-matches the producer's own.
package observatory

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrBadFrame is the typed error every malformed-frame failure wraps:
// bad magic, unknown frame type, oversized or truncated payloads.
// Match with errors.Is(err, ErrBadFrame).
var ErrBadFrame = errors.New("observatory: bad frame")

// ErrBadHello is the typed error for handshake rejections: oversized
// hello frames and malformed run IDs. The daemon answers such hellos
// with an error frame instead of uniquifying garbage into a run ID, and
// Dial surfaces the rejection wrapping this error.
var ErrBadHello = errors.New("observatory: bad hello")

// wireMagicStr brands a push connection; the four bytes arrive before the
// first frame. The trailing digit is the protocol revision.
const wireMagicStr = "TGO1"

// Frame types. Producer → daemon: hello, packet, snapshot, metrics,
// final. Daemon → producer: helloAck (assigned run ID plus resume
// offset), finalAck (final report built), error (handshake rejected;
// payload is a human-readable reason).
const (
	frameHello    = byte('H')
	framePacket   = byte('P')
	frameSnapshot = byte('S')
	frameMetrics  = byte('M')
	frameFinal    = byte('F')
	frameHelloAck = byte('A')
	frameFinalAck = byte('D')
	frameError    = byte('E')
)

// maxFramePayload bounds a single frame so a corrupt length prefix cannot
// drive an unbounded allocation on either side of the wire.
const maxFramePayload = 64 << 20

// maxHelloPayload bounds the hello frame far below the general wire cap:
// a handshake is a small JSON document, and an attacker-sized hello must
// not buy a 64 MiB allocation before the daemon has even admitted the
// connection.
const maxHelloPayload = 64 << 10

// maxRunIDLen bounds a requested run identity. Run IDs become file names
// (-final-out artifacts, WAL segments) and metric label values.
const maxRunIDLen = 120

// helloSchema is the handshake schema revision. Revision 2 added frame
// sequencing and the reconnect/resume negotiation (Resume, HaveSeq,
// Finalized).
const helloSchema = 2

// Hello is the handshake a producer sends as its first frame: who the run
// is, its seed, the classifier threshold, and where virtual time will end
// (so the daemon can expire trailing windows exactly at finalize).
type Hello struct {
	Schema int `json:"schema"`
	// Run is the requested run ID; the daemon uniquifies collisions and
	// returns the assigned ID in the hello ack. Empty gets a generated ID.
	Run string `json:"run"`
	// Seed is the producer's scenario seed (shown on /runs).
	Seed uint64 `json:"seed"`
	// LargestCores is the classifier's capability threshold.
	LargestCores int `json:"largest_cores"`
	// EndTimeS is horizon + drain in virtual seconds (0 = unknown).
	EndTimeS float64 `json:"end_time_s"`
	// Source labels the producer kind: "tgsim", "fleet", "replay", ...
	Source string `json:"source,omitempty"`
	// Resume marks a reconnect: the producer already holds a
	// daemon-assigned identity in Run and wants its run back, taking over
	// from a half-open previous connection if one lingers. The daemon
	// answers with the resume offset (HaveSeq) so the producer replays
	// exactly the frames the daemon never applied.
	Resume bool `json:"resume,omitempty"`
}

// helloAck is the daemon's answer to a hello.
type helloAck struct {
	Run string `json:"run"` // the assigned (possibly uniquified) run ID
	// HaveSeq is the highest record-frame sequence number the daemon has
	// applied for this run (0 for a fresh run). The producer must resume
	// sending at HaveSeq+1; the daemon drops anything at or below it.
	HaveSeq uint64 `json:"have_seq"`
	// Finalized reports that the run's final frame was already applied —
	// a producer reconnecting mid-Finish learns its final ack outcome
	// here instead of re-driving the run.
	Finalized bool `json:"finalized,omitempty"`
}

// validateRunID vets a producer-requested run identity. Run IDs become
// artifact file names and metric labels, so only a conservative charset
// is admitted; empty is fine (the daemon assigns one).
func validateRunID(id string) error {
	if id == "" {
		return nil
	}
	if len(id) > maxRunIDLen {
		return fmt.Errorf("%w: run ID length %d exceeds %d", ErrBadHello, len(id), maxRunIDLen)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return fmt.Errorf("%w: run ID %q contains %q (want [A-Za-z0-9._-])", ErrBadHello, id, c)
		}
	}
	return nil
}

// writeFrame writes one framed message: type byte, 4-byte big-endian
// payload length, payload.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr frameHeader
	return hdr.write(w, typ, payload)
}

// frameHeader is the scratch space one frame's header is written from.
// writeFrame's own copy escapes to the heap on every call; an owner that
// writes a frame per packet (a frame log, the pusher's writer) keeps one
// in its own struct, so a frame costs no allocation.
type frameHeader [5]byte

// write writes one framed message as writeFrame does, using h for the
// header.
func (h *frameHeader) write(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("%w: %d-byte payload exceeds limit", ErrBadFrame, len(payload))
	}
	h[0] = typ
	binary.BigEndian.PutUint32(h[1:], uint32(len(payload)))
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one framed message into a fresh payload. io.EOF is
// returned clean (not wrapped) when the connection closes between frames.
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	return readFrameLimited(r, maxFramePayload)
}

// readFrameLimited is readFrame with a tighter payload cap, enforced
// before the payload is allocated — used for the hello, where even the
// general wire limit is too generous for a peer that has not identified
// itself.
func readFrameLimited(r io.Reader, limit uint32) (typ byte, payload []byte, err error) {
	var buf []byte
	return readFrameInto(r, limit, &buf)
}

// readFrameInto is readFrameLimited reading into *buf, header included.
// *buf is replaced with a larger buffer only when a frame does not fit
// (the cap is checked first), so a reader that keeps one buffer per
// stream stops allocating once it has seen the largest frame. The
// payload is a prefix of *buf: it is valid until the next read into the
// same buffer, and a caller that keeps any of it must copy it.
func readFrameInto(r io.Reader, limit uint32, buf *[]byte) (typ byte, payload []byte, err error) {
	hdr := growTo(buf, 5)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: truncated header: %v", ErrBadFrame, err)
	}
	typ = hdr[0]
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > limit {
		return 0, nil, fmt.Errorf("%w: %d-byte payload exceeds limit", ErrBadFrame, n)
	}
	payload = growTo(buf, int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
	}
	return typ, payload, nil
}

// growTo returns the first n bytes of *buf, first replacing *buf with an
// n-byte buffer when it holds fewer. Nothing is copied: the caller
// overwrites the bytes.
func growTo(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

// readMagic consumes and checks the connection preamble.
func readMagic(r io.Reader) error {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return fmt.Errorf("%w: missing magic: %v", ErrBadFrame, err)
	}
	if string(m[:]) != wireMagicStr {
		return fmt.Errorf("%w: bad magic %q", ErrBadFrame, m)
	}
	return nil
}

// Record frames (packet and final) are *sequenced*: their payloads open
// with an 8-byte little-endian sequence number assigned contiguously
// from 1 by the producer's writer. The sequence is the delivery
// guarantee — the daemon applies seq n+1 only after n, dedups replays at
// or below its high-water mark, and reports that mark as the resume
// offset in the hello ack.

// stampSeq writes the sequence number into the 8 bytes a record-frame
// payload reserves for it at the front.
func stampSeq(payload []byte, seq uint64) {
	binary.LittleEndian.PutUint64(payload, seq)
}

// splitSeq peels the sequence number off a record-frame payload.
func splitSeq(payload []byte) (seq uint64, inner []byte, err error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("%w: short sequenced frame", ErrBadFrame)
	}
	return binary.LittleEndian.Uint64(payload), payload[8:], nil
}

// appendRecordFrame starts a record-frame payload in dst: 8 bytes
// reserved for the sequence number (stampSeq fills them when the writer
// dequeues the frame), then a virtual time as little-endian float64 bits.
// A final frame's time is the end of the run and the payload ends there;
// a packet frame's is the flush time, and the caller appends the
// packet's accounting wire encoding — the same bytes the simulated AMIE
// wire carries — into the same buffer.
func appendRecordFrame(dst []byte, t float64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, 0)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(t))
}

// recordFrame is appendRecordFrame into a fresh 16-byte payload.
func recordFrame(t float64) []byte {
	return appendRecordFrame(make([]byte, 0, 16), t)
}

// splitPacketFrame splits a packet-frame body (the payload past the
// sequence number) into the flush time and the packet's wire bytes,
// which it leaves undecoded.
func splitPacketFrame(payload []byte) (at float64, wire []byte, err error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("%w: short packet frame", ErrBadFrame)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(payload)), payload[8:], nil
}

// decodeFinalFrame parses a final-frame body (the payload past the
// sequence number): the end-of-run virtual time the daemon advances the
// stream clock to before finalizing.
func decodeFinalFrame(payload []byte) (float64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("%w: final frame wants 8 bytes, got %d", ErrBadFrame, len(payload))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(payload)), nil
}

// marshalJSON marshals a handshake or snapshot value; the types involved
// contain no unmarshalable values, so failure is a programming error.
func marshalJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic("observatory: marshal: " + err.Error())
	}
	return data
}

// unmarshalStrictless decodes a JSON frame payload, wrapping failures as
// bad frames (unknown fields are tolerated for forward compatibility).
func unmarshalStrictless(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return nil
}
