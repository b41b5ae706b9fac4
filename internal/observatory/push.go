package observatory

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/faults"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/simrand"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// Pusher streams a run's telemetry to an observatory daemon. It mounts on
// the same zero-perturbation seams the in-process observatory uses — the
// accounting packet tap and the snapshot sink — so attaching it never
// schedules a kernel event and same-seed runs stay byte-identical with or
// without -push.
//
// Flow control: frames pass through an outbox drained by a writer
// goroutine. Packet frames are encoded into a fixed set of pushPacketBufs
// buffers that cycle through a free list: the packet tap takes a free
// buffer, encodes the frame into it and enqueues it, and the writer puts
// the buffer back once the frame is journaled and written, or dropped.
// The buffers come from the process-wide frame-buffer list when the
// pusher is made and go back to it when the pusher ends, so the next
// pusher starts with buffers already grown.
// Packet frames are never dropped — when every buffer is in flight the
// simulation goroutine blocks until the writer returns one (wall-clock
// backpressure only; virtual time is untouched), which is what lets the
// daemon's rebuilt accounting database byte-match the producer's. So at
// most pushPacketBufs packet frames are queued, and a warm packet frame
// allocates nothing. Snapshot and metrics frames bring their own
// payloads and are progress conflation: when the outbox is full they are
// dropped and counted, never blocking the run.
//
// Fault tolerance: the writer goroutine owns the connection end to end.
// Record frames (packets, final) are sequence-numbered and spilled to a
// disk journal (a frame log, see journal.go) before they ever touch the
// wire. On a wire error the writer reconnects with exponential backoff
// and deterministic jitter (faults.RetryPolicy semantics on the wall
// clock), re-handshakes with Resume set, learns the daemon's resume
// offset from the hello ack, and replays exactly the frames the daemon
// never applied from the journal. Only after the retry budget is
// exhausted does the pusher break: subsequent packet frames are counted
// in PacketsLost instead of blocking forever, and Finish reports the
// error. tgsim -strict-obs turns a broken push into a non-zero exit,
// because the daemon-side record is then incomplete.
type Pusher struct {
	addr  string
	hello Hello // as negotiated (Run holds the daemon-assigned identity)
	opts  PushOptions
	rng   *simrand.Stream // backoff jitter; confined to the dial/writer path

	conn net.Conn // owned by the writer goroutine once it starts
	run  string   // daemon-assigned run ID

	out    chan outFrame
	free   chan []byte // packet-frame buffers not in flight (see sendPacket)
	wg     sync.WaitGroup
	errVal atomic.Pointer[pushErr]

	// Writer-owned delivery state.
	spill    *frameLog
	spillErr error // first failed spill append; replay is impossible from here on
	nextSeq  uint64
	hdr      frameHeader

	finalAcked atomic.Bool

	packets      atomic.Uint64
	packetsLost  atomic.Uint64
	snaps        atomic.Uint64
	snapsDropped atomic.Uint64
	metrics      atomic.Uint64
	bytes        atomic.Uint64
	reconnects   atomic.Uint64
	replayed     atomic.Uint64
	spilled      atomic.Uint64
	finished     bool
}

type outFrame struct {
	typ     byte
	payload []byte
}

// pushErr boxes the first wire error (atomic.Pointer needs a concrete type).
type pushErr struct{ err error }

// PushStats summarizes what a pusher shipped (and lost).
type PushStats struct {
	Packets      uint64 // packet frames delivered to the writer
	PacketsLost  uint64 // packet frames discarded after the retry budget gave up
	Snapshots    uint64 // snapshot frames enqueued
	SnapsDropped uint64 // snapshot/metrics frames conflated away (outbox full)
	Metrics      uint64 // metrics frames enqueued
	Bytes        uint64 // payload bytes written to the wire
	Reconnects   uint64 // successful reconnect+resume handshakes
	Replayed     uint64 // record frames re-sent from the spill journal
	SpilledBytes uint64 // bytes appended to the disk spill journal
}

// PushOptions tunes the fault-tolerance layer of a push session.
type PushOptions struct {
	// Retry is the reconnect backoff policy, interpreted on the wall
	// clock (des.Time fields are seconds). MaxAttempts bounds
	// *consecutive* failed attempts — the budget resets on every
	// successful handshake. A negative MaxAttempts disables
	// reconnection entirely: the first wire error breaks the pusher
	// (the pre-resilience behavior).
	Retry faults.RetryPolicy
	// SpillPath places the disk spill journal; empty uses a private
	// temp file. The journal is removed when the session ends.
	SpillPath string
}

// DefaultPushOptions is the default reconnect profile: a dozen attempts
// from 50 ms doubling to a 2 s cap (±20 % jitter) rides out roughly
// fifteen seconds of daemon outage — a restart, not a decommission.
func DefaultPushOptions() PushOptions {
	return PushOptions{
		Retry: faults.RetryPolicy{
			MaxAttempts: 12,
			Base:        0.05,
			MaxDelay:    2,
			Multiplier:  2,
			Jitter:      0.2,
		},
	}
}

// pushOutbox is the outbox depth. It bounds the snapshot and metrics
// frames in flight, which are dropped when it is full; the packet-frame
// buffers bound the packet frames.
const pushOutbox = 256

// pushPacketBufs is the number of packet-frame buffers a pusher cycles
// through its free list: the most packet frames in flight at once. Each
// buffer grows to the largest packet it has carried, in this pusher or
// an earlier one.
const pushPacketBufs = 8

// handshakeTimeout bounds the hello and final acks so a wedged daemon
// cannot hang a producer forever.
const handshakeTimeout = 30 * time.Second

// DialTimeout is the connect timeout for Dial.
const DialTimeout = 10 * time.Second

// splitPushAddr resolves an observatory address: "unix:PATH" or a path
// containing a slash dials a Unix socket, anything else TCP.
func splitPushAddr(addr string) (network, target string) {
	if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
		return "unix", rest
	}
	if strings.Contains(addr, "/") {
		return "unix", addr
	}
	return "tcp", addr
}

// DialPush connects to an observatory daemon, performs the hello
// handshake, and returns a pusher ready to attach to a run. The initial
// dial uses the same retry budget as mid-run reconnects (a producer may
// start while the daemon is restarting); hello rejections (ErrBadHello)
// are permanent and never retried. The returned pusher's RunID is the
// daemon-assigned (possibly uniquified) identity.
func DialPush(addr string, h Hello, opts PushOptions) (*Pusher, error) {
	p := newPusher(addr, h, opts)
	for attempt := 1; ; attempt++ {
		conn, ack, err := p.dialAndHello(false)
		if err == nil {
			p.conn, p.run = conn, ack.Run
			p.hello.Run = ack.Run
			break
		}
		if errors.Is(err, ErrBadHello) {
			return nil, err
		}
		d, ok := p.retryDelay(attempt)
		if !ok {
			return nil, fmt.Errorf("observatory: dial %s: %w", addr, err)
		}
		time.Sleep(d)
	}
	if err := p.start(); err != nil {
		p.conn.Close()
		return nil, fmt.Errorf("observatory: spill journal: %w", err)
	}
	return p, nil
}

// newPusher builds an unconnected pusher with its outbox and a full free
// list of pushPacketBufs packet-frame buffers taken from the frame-buffer
// list (nil ones when it runs short). Abort gives them back; a pusher
// whose dial fails leaves them to the garbage collector.
func newPusher(addr string, h Hello, opts PushOptions) *Pusher {
	h.Schema = helloSchema
	h.Resume = false
	p := &Pusher{
		addr:  addr,
		hello: h,
		opts:  opts,
		out:   make(chan outFrame, pushOutbox),
		free:  make(chan []byte, pushPacketBufs),
		rng:   simrand.Derive(h.Seed, "observatory/push-retry"),
	}
	for range pushPacketBufs {
		p.free <- takeFrameBuf()
	}
	return p
}

// start opens the spill journal and starts the writer on p.conn.
func (p *Pusher) start() error {
	spill, err := p.openSpill()
	if err != nil {
		return err
	}
	p.spill = spill
	p.wg.Add(1)
	go p.writer()
	return nil
}

// openSpill starts the spill journal afresh at opts.SpillPath, or in a
// private temp file when the path is empty.
func (p *Pusher) openSpill() (*frameLog, error) {
	var f *os.File
	var err error
	if p.opts.SpillPath == "" {
		f, err = os.CreateTemp("", "tgpush-*.spill")
	} else {
		f, err = os.OpenFile(p.opts.SpillPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	}
	if err != nil {
		return nil, err
	}
	h := p.hello
	return newFrameLog(f, walMeta{ID: h.Run, Seed: h.Seed, LargestCores: h.LargestCores, EndTimeS: h.EndTimeS, Source: h.Source}, false)
}

// dialAndHello performs one connect + handshake attempt.
func (p *Pusher) dialAndHello(resume bool) (net.Conn, helloAck, error) {
	network, target := splitPushAddr(p.addr)
	conn, err := net.DialTimeout(network, target, DialTimeout)
	if err != nil {
		return nil, helloAck{}, err
	}
	h := p.hello
	h.Resume = resume
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	if _, err := conn.Write([]byte(wireMagicStr)); err != nil {
		conn.Close()
		return nil, helloAck{}, fmt.Errorf("observatory: handshake: %w", err)
	}
	if err := writeFrame(conn, frameHello, marshalJSON(&h)); err != nil {
		conn.Close()
		return nil, helloAck{}, fmt.Errorf("observatory: handshake: %w", err)
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		conn.Close()
		return nil, helloAck{}, fmt.Errorf("observatory: hello ack: %w", err)
	}
	if typ == frameError {
		conn.Close()
		return nil, helloAck{}, fmt.Errorf("%w: daemon rejected hello: %s", ErrBadHello, payload)
	}
	if typ != frameHelloAck {
		conn.Close()
		return nil, helloAck{}, fmt.Errorf("%w: want hello ack, got frame %q", ErrBadFrame, typ)
	}
	var ack helloAck
	if err := unmarshalStrictless(payload, &ack); err != nil {
		conn.Close()
		return nil, helloAck{}, fmt.Errorf("observatory: hello ack: %w", err)
	}
	conn.SetDeadline(time.Time{})
	return conn, ack, nil
}

// retryDelay maps an attempt number to a wall-clock backoff, or reports
// that the budget is spent.
func (p *Pusher) retryDelay(attempt int) (time.Duration, bool) {
	if p.opts.Retry.MaxAttempts < 0 {
		return 0, false
	}
	return p.opts.Retry.WallDelay(attempt, p.rng)
}

// RunID returns the daemon-assigned run identity.
func (p *Pusher) RunID() string { return p.run }

// Err returns the permanent push error, if any (set only after the
// reconnect budget gave up, or when a replay found the spill journal
// failed).
func (p *Pusher) Err() error {
	if e := p.errVal.Load(); e != nil {
		return e.err
	}
	return nil
}

// fail records the permanent push error (first one wins).
func (p *Pusher) fail(err error) {
	p.errVal.CompareAndSwap(nil, &pushErr{err: err})
}

// Stats returns delivery counters.
func (p *Pusher) Stats() PushStats {
	return PushStats{
		Packets:      p.packets.Load(),
		PacketsLost:  p.packetsLost.Load(),
		Snapshots:    p.snaps.Load(),
		SnapsDropped: p.snapsDropped.Load(),
		Metrics:      p.metrics.Load(),
		Bytes:        p.bytes.Load(),
		Reconnects:   p.reconnects.Load(),
		Replayed:     p.replayed.Load(),
		SpilledBytes: p.spilled.Load(),
	}
}

// Lossy reports whether the daemon-side view of this run is incomplete:
// the push broke permanently, or packet frames were discarded.
func (p *Pusher) Lossy() bool {
	return p.Err() != nil || p.packetsLost.Load() > 0
}

// AppendOpenMetrics renders the pusher's wall-clock delivery counters as
// tg_push_* OpenMetrics families (no # EOF terminator — the caller owns
// the page). These counters are wall-clock artifacts of the transport, so
// they live outside the deterministic run registry: exports and tgdiff
// never see them.
func (p *Pusher) AppendOpenMetrics(b []byte) []byte {
	st := p.Stats()
	add := func(name, help string, v uint64) {
		b = append(b, "# HELP "+name+" "+help+"\n"...)
		b = append(b, "# TYPE "+name+" counter\n"...)
		b = fmt.Appendf(b, "%s %d\n", name, v)
	}
	add("tg_push_packets_total", "Accounting packet frames handed to the push writer.", st.Packets)
	add("tg_push_packets_lost_total", "Packet frames abandoned after the reconnect budget gave up.", st.PacketsLost)
	add("tg_push_reconnects_total", "Successful reconnect+resume handshakes.", st.Reconnects)
	add("tg_push_replayed_frames_total", "Record frames re-sent from the spill journal.", st.Replayed)
	add("tg_push_spilled_bytes_total", "Bytes appended to the disk spill journal.", st.SpilledBytes)
	add("tg_push_bytes_total", "Payload bytes written to the wire.", st.Bytes)
	return b
}

// writer drains the outbox onto the wire. It is the sole owner of the
// connection, the sequence counter, and the spill journal. Record frames
// are stamped with the next sequence number and journaled *before* the
// first write attempt, so a failed write (or a whole daemon restart) is
// recoverable by replay. After the pusher breaks permanently it keeps
// draining (so blocking senders never deadlock) but discards frames.
// Every packet frame's buffer goes back to the free list once the frame
// is written or discarded.
func (p *Pusher) writer() {
	defer p.wg.Done()
	for f := range p.out {
		switch f.typ {
		case framePacket:
			p.deliverRecord(f)
			p.free <- f.payload
		case frameFinal:
			p.deliverRecord(f)
		default:
			// Conflatable progress frames: never sequenced, never
			// replayed — on trouble, drop the frame and let the
			// reconnect restore the pipe for the record stream.
			if p.Err() != nil {
				continue
			}
			if err := p.hdr.write(p.conn, f.typ, f.payload); err != nil {
				p.snapsDropped.Add(1)
				if !p.reconnect() {
					p.fail(fmt.Errorf("observatory: write: %w", err))
				}
				continue
			}
			p.bytes.Add(uint64(len(f.payload)))
		}
	}
}

// deliverRecord sequences, journals and writes one record frame (packet
// or final), reconnecting on a wire error. A final frame waits for the
// daemon's ack.
func (p *Pusher) deliverRecord(f outFrame) {
	p.nextSeq++
	stampSeq(f.payload, p.nextSeq)
	if p.spillErr == nil {
		// Disk trouble leaves the live session running; only a
		// reconnect that needs replay breaks the push.
		if err := p.spill.append(f.typ, f.payload); err != nil {
			p.spillErr = err
		} else {
			p.spilled.Add(uint64(5 + len(f.payload)))
		}
	}
	if p.Err() != nil {
		if f.typ == framePacket {
			p.packetsLost.Add(1)
		}
		return
	}
	if err := p.hdr.write(p.conn, f.typ, f.payload); err != nil {
		if !p.reconnect() {
			p.fail(fmt.Errorf("observatory: write: %w", err))
			if f.typ == framePacket {
				p.packetsLost.Add(1)
			}
			return
		}
		// The reconnect replayed every unapplied frame, this one
		// included — it is delivered.
	}
	p.bytes.Add(uint64(len(f.payload)))
	if f.typ == frameFinal {
		p.awaitFinalAck()
	}
}

// reconnect re-establishes the session after a wire error: close the dead
// connection, back off per the retry policy (deterministic jitter), dial
// and re-handshake with Resume set, then replay every record frame above
// the daemon's resume offset. Returns false when the budget is exhausted
// or resume is impossible (identity lost, seed mismatch, spill journal
// failed).
func (p *Pusher) reconnect() bool {
	p.conn.Close()
	for attempt := 1; ; attempt++ {
		d, ok := p.retryDelay(attempt)
		if !ok {
			return false
		}
		time.Sleep(d)
		conn, ack, err := p.dialAndHello(true)
		if err != nil {
			if errors.Is(err, ErrBadHello) {
				return false // daemon rejected the resume; no point retrying
			}
			continue
		}
		if ack.Run != p.run {
			// The daemon handed out a different identity — our run is
			// gone and replaying into a stranger would corrupt it.
			conn.Close()
			return false
		}
		p.conn = conn
		p.reconnects.Add(1)
		if ack.Finalized {
			// The daemon already applied our final frame in a previous
			// life; the pending final ack is answered by the handshake.
			p.finalAcked.Store(true)
			return true
		}
		if err := p.replayFrom(ack.HaveSeq); err != nil {
			p.conn.Close()
			if p.spillErr != nil {
				p.fail(err) // the frames to replay are gone; retrying cannot help
				return false
			}
			continue
		}
		return true
	}
}

// replayFrom re-sends every record frame with sequence > haveSeq from
// the spill journal, in order.
func (p *Pusher) replayFrom(haveSeq uint64) error {
	if haveSeq >= p.nextSeq {
		return nil
	}
	if p.spillErr == nil {
		p.spillErr = p.spill.w.Flush()
	}
	if p.spillErr != nil {
		return fmt.Errorf("observatory: replay from seq %d: spill journal failed: %w", haveSeq+1, p.spillErr)
	}
	_, err := readFrameLog(p.spill.path, func(typ byte, payload []byte) error {
		if typ == frameHello {
			return nil
		}
		seq, _, err := splitSeq(payload)
		if err != nil || seq <= haveSeq {
			return err
		}
		if err := p.hdr.write(p.conn, typ, payload); err != nil {
			return err
		}
		p.replayed.Add(1)
		p.bytes.Add(uint64(len(payload)))
		return nil
	})
	return err
}

// awaitFinalAck reads the daemon's final ack after the final frame went
// out. A connection loss here reconnects like any other: either the
// resume handshake reports Finalized (the daemon got our final before
// dying or the ack was merely lost), or the replay re-delivers the final
// frame and a fresh ack follows.
func (p *Pusher) awaitFinalAck() {
	for {
		if p.finalAcked.Load() {
			return
		}
		p.conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
		typ, _, err := readFrame(p.conn)
		if err == nil && typ == frameFinalAck {
			p.conn.SetReadDeadline(time.Time{})
			p.finalAcked.Store(true)
			return
		}
		if err == nil {
			err = fmt.Errorf("%w: want final ack, got frame %q", ErrBadFrame, typ)
		}
		if !p.reconnect() {
			p.fail(fmt.Errorf("observatory: final ack: %w", err))
			return
		}
	}
}

// Observer returns the scenario observer that mounts the pusher on a run:
// every flushed accounting packet is encoded with the accounting wire
// codec and shipped, and every progress snapshot is shipped (conflated
// under backpressure) together with the registry's OpenMetrics exposition
// when reg is non-nil. It appends to the run's packet taps and snapshot
// sinks, so sinks attached before it see every snapshot first.
func (p *Pusher) Observer(reg *telemetry.Registry) scenario.Observer {
	return scenario.ObserverFunc(func(a *scenario.Attachment) {
		a.Packets = append(a.Packets, p.sendPacket)
		a.Snapshots = append(a.Snapshots, func(s *telemetry.Snapshot) {
			p.snaps.Add(1)
			p.sendDroppable(frameSnapshot, marshalJSON(s))
			if reg != nil {
				var buf bytes.Buffer
				if err := reg.WriteOpenMetrics(&buf); err == nil {
					p.metrics.Add(1)
					p.sendDroppable(frameMetrics, buf.Bytes())
				}
			}
		})
	})
}

// sendPacket ships one flushed accounting packet as a packet frame. It
// takes a buffer from the free list, waiting while every buffer is in
// flight (fidelity over wall-clock speed), writes the record-frame
// header and the packet's wire encoding into it, and enqueues it; the
// writer puts the buffer back. Every packet frame goes through here, so
// every buffer the writer returns came from the free list. Once broken,
// packets are counted as lost instead of enqueued.
func (p *Pusher) sendPacket(at des.Time, pkt *accounting.Packet) {
	if p.Err() != nil {
		p.packetsLost.Add(1)
		return
	}
	buf := <-p.free
	buf = pkt.AppendWire(appendRecordFrame(buf[:0], float64(at)))
	p.packets.Add(1)
	p.out <- outFrame{typ: framePacket, payload: buf}
}

// sendDroppable enqueues a frame if there is room, dropping (and
// counting) it otherwise. Snapshots and metrics use it: they are
// progress conflation, not records.
func (p *Pusher) sendDroppable(typ byte, payload []byte) {
	select {
	case p.out <- outFrame{typ: typ, payload: payload}:
	default:
		p.snapsDropped.Add(1)
	}
}

// Finish ends the push: it ships the final frame (end is the virtual time
// the daemon advances the stream clock to — pass horizon + drain), waits
// for the writer to drain the outbox and collect the daemon's final ack
// (the signal that the daemon-side report is built and published —
// surviving reconnects along the way), closes the connection, and removes
// the spill journal. Call after scenario.Run returns, from the same
// goroutine that drove the run. Safe to call once; after Abort it only
// reports the session error.
func (p *Pusher) Finish(end float64) error {
	if p.finished {
		return p.Err()
	}
	p.finished = true
	if p.Err() == nil {
		p.out <- outFrame{typ: frameFinal, payload: recordFrame(end)}
	}
	close(p.out)
	p.wg.Wait()
	defer p.Abort() // only the teardown is left to do
	if err := p.Err(); err != nil {
		return fmt.Errorf("observatory: push: %w", err)
	}
	if !p.finalAcked.Load() {
		return fmt.Errorf("observatory: final ack never arrived")
	}
	return nil
}

// Abort closes the connection without the final handshake (for error
// paths where the run never completed), removes the spill journal, and
// gives the packet-frame buffers back to the frame-buffer list.
// Idempotent, in either order with Finish.
func (p *Pusher) Abort() {
	if !p.finished {
		p.finished = true
		close(p.out)
		p.wg.Wait()
	}
	// The writer has exited, so no frame is left in the outbox or being
	// written: every buffer is back in p.free, and a repeated Abort finds
	// it empty. They go back before the connection closes, so the
	// daemon's buffer for this connection follows them into the list.
	for len(p.free) > 0 {
		giveFrameBuf(<-p.free)
	}
	p.conn.Close()
	p.spill.close(false)
	os.Remove(p.spill.path)
}
