package observatory

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/perf"
	"github.com/tgsim/tgmod/internal/stream"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// Config parameterizes a Daemon.
type Config struct {
	// FinalDir, when set, receives per-run final artifacts as each run
	// finalizes: <id>.modality.txt (the byte-exact usage-by-modality
	// table) and <id>.modalities.json (the final /modalities payload).
	FinalDir string
	// WALDir, when set, enables per-run write-ahead journaling: every
	// record frame is appended to <id>.wal before it is applied, and
	// Recover rebuilds run state from the directory after a crash.
	WALDir string
	// Pprof mounts the net/http/pprof endpoints on the console at
	// /debug/pprof/. Off by default: they expose process internals.
	Pprof bool
	// Log receives connection lifecycle lines; nil silences them.
	Log *log.Logger
}

// Daemon is the multi-run observatory: it accepts pushed telemetry on any
// number of listeners, maintains one streaming processor and one
// accounting database per connected run, and serves the federated console
// (see ServeHTTP in http.go).
//
// Concurrency model: each connection is one run and is handled by one
// goroutine, which owns that run's processor, registry, and accounting
// database outright — the same single-writer discipline the in-process
// observatory uses. Everything the HTTP side serves is an immutable
// payload published through an atomic pointer by the owning goroutine.
// The daemon's own bookkeeping is plain atomics that the scrape renders
// as OpenMetrics text directly (writeMetaMetrics), so ingest and scrape
// never contend.
type Daemon struct {
	cfg Config

	mu   sync.Mutex
	runs map[string]*runState
	seq  int

	listeners []net.Listener
	lnWG      sync.WaitGroup
	closed    atomic.Bool

	// Live connections (d.mu) and their handler goroutines, so Shutdown
	// can drain and Kill can sever. killed tells exiting handlers to skip
	// the WAL sync a real kill -9 would never perform.
	conns  map[net.Conn]struct{}
	connWG sync.WaitGroup
	killed atomic.Bool

	httpSrv *http.Server // console server lifecycle; see http.go

	// Meta-observability counters (tg_obsd_*).
	connections  atomic.Uint64
	disconnects  atomic.Uint64
	reconnects   atomic.Uint64
	decodeErrors atomic.Uint64
	bytesIn      atomic.Uint64
	framePackets atomic.Uint64
	frameSnaps   atomic.Uint64
	frameMetrics atomic.Uint64
	frameFinals  atomic.Uint64
	recoveries   atomic.Uint64
	dupFrames    atomic.Uint64

	// runtime samples the daemon's own Go runtime state (tg_runtime_*),
	// spliced into the meta-metrics exposition at scrape time. The sampler
	// is internally locked, so concurrent scrapes are safe.
	runtime *perf.RuntimeSampler
}

// runState is one run's slice of the daemon. The fields below the
// "owned" marker are touched only by the run's connection goroutine;
// the atomic publications are what the HTTP side reads.
type runState struct {
	ID       string
	Seed     uint64
	Largest  int
	Source   string
	EndTimeS float64

	// Owned by the connection goroutine (ownMu holds the ownership: a
	// handler locks it for its whole tenure, so a resume takeover waits
	// for the evicted handler to finish its in-flight frame).
	ownMu   sync.Mutex
	proc    *stream.Processor
	central *accounting.Central
	reg     *telemetry.Registry
	wal     *frameLog // nil when journaling is off or the disk failed

	// curConn lets a resume takeover force-close a half-open previous
	// connection so its handler releases ownership.
	curConn atomic.Pointer[net.Conn]

	// haveSeq is the record-frame high-water mark: the highest sequence
	// number applied (and, when journaling, logged). It is the resume
	// offset reported in the hello ack.
	haveSeq atomic.Uint64
	dups    atomic.Uint64 // replayed frames deduplicated away

	// Published (immutable payloads; HTTP loads the pointers).
	lastSnap   atomic.Pointer[telemetry.Snapshot]
	modalities atomic.Pointer[[]byte]
	drift      atomic.Pointer[[]byte]
	metricsOM  atomic.Pointer[[]byte] // producer-pushed exposition
	streamOM   atomic.Pointer[[]byte] // daemon-side per-run tg_stream_*/tg_drift_*
	report     atomic.Pointer[[]byte] // final usage-by-modality table text
	modPayload atomic.Pointer[stream.ModalitiesPayload]
	dftPayload atomic.Pointer[stream.DriftPayload]

	// Shared bookkeeping.
	connected    atomic.Bool
	finalized    atomic.Bool
	reconnects   atomic.Uint64
	frames       atomic.Uint64
	bytes        atomic.Uint64
	packets      atomic.Uint64
	lastFrameUNS atomic.Int64 // unix nanos of the last frame received
	publishes    atomic.Uint64
}

// NewDaemon returns a daemon ready to accept listeners.
func NewDaemon(cfg Config) *Daemon {
	return &Daemon{
		cfg:     cfg,
		runs:    make(map[string]*runState),
		conns:   make(map[net.Conn]struct{}),
		runtime: perf.NewRuntimeSampler(),
	}
}

// logf writes a lifecycle line when logging is configured.
func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Log != nil {
		d.cfg.Log.Printf(format, args...)
	}
}

// ListenIngest starts accepting push connections on addr ("host:port" for
// TCP, "unix:PATH" or a path containing "/" for a Unix socket) and
// returns the bound address. Call Close to stop every listener.
func (d *Daemon) ListenIngest(addr string) (string, error) {
	network, target := splitPushAddr(addr)
	if network == "unix" {
		// A stale socket file from a previous daemon blocks the bind.
		os.Remove(target)
	}
	ln, err := net.Listen(network, target)
	if err != nil {
		return "", err
	}
	d.mu.Lock()
	d.listeners = append(d.listeners, ln)
	d.mu.Unlock()
	d.lnWG.Add(1)
	go d.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (d *Daemon) acceptLoop(ln net.Listener) {
	defer d.lnWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		d.connWG.Add(1)
		go func() {
			defer d.connWG.Done()
			d.handleConn(conn)
		}()
	}
}

// Close stops all listeners and the HTTP console. In-flight runs keep
// their published state; their connections are closed by their peers.
func (d *Daemon) Close() error {
	if !d.stopListening() {
		return nil
	}
	return d.stopConsole(false)
}

// Shutdown stops the daemon gracefully: listeners close first (no new
// producers), every in-flight connection gets until the grace deadline to
// drain (its reads are deadline-capped, so a silent peer cannot stall the
// exit), handler exits sync and close the per-run WALs, and the console
// goes down last. Finalized runs already wrote their -final-out
// artifacts at finalize time; a graceful exit therefore loses nothing
// that was ever acked.
func (d *Daemon) Shutdown(grace time.Duration) error {
	if !d.stopListening() {
		return nil
	}
	deadline := time.Now().Add(grace)
	d.mu.Lock()
	for c := range d.conns {
		c.SetReadDeadline(deadline)
	}
	d.mu.Unlock()
	d.connWG.Wait()
	d.closeWALs(true)
	return d.stopConsole(false)
}

// Kill simulates a hard crash for tests: listeners and live connections
// are severed instantly and buffered WAL bytes are deliberately not
// flushed — what kill -9 leaves on disk. The daemon object is dead
// afterwards; recovery happens in a fresh daemon over the same WAL
// directory.
func (d *Daemon) Kill() {
	d.killed.Store(true)
	if !d.stopListening() {
		return
	}
	d.mu.Lock()
	for c := range d.conns {
		c.Close()
	}
	d.mu.Unlock()
	d.connWG.Wait()
	d.closeWALs(false) // the crash loses the unflushed tail
	d.stopConsole(true)
}

// stopListening marks the daemon closed, closes every listener (removing
// Unix socket files), and waits for the accept loops to exit. It reports
// false when the daemon was already closed.
func (d *Daemon) stopListening() bool {
	if d.closed.Swap(true) {
		return false
	}
	d.mu.Lock()
	lns := d.listeners
	d.listeners = nil
	d.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
		if ua, ok := ln.Addr().(*net.UnixAddr); ok {
			os.Remove(ua.Name)
		}
	}
	d.lnWG.Wait()
	return true
}

// closeWALs closes every run's WAL, syncing first unless a crash is being
// simulated. Call only once no handler is left: WAL ownership is free.
func (d *Daemon) closeWALs(sync bool) {
	for _, rs := range d.runList() {
		rs.wal.close(sync)
		rs.wal = nil
	}
}

// stopConsole takes the HTTP console down: gracefully within 2 s, or at
// once when hard.
func (d *Daemon) stopConsole(hard bool) error {
	d.mu.Lock()
	srv := d.httpSrv
	d.httpSrv = nil
	d.mu.Unlock()
	if srv == nil {
		return nil
	}
	if hard {
		return srv.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return srv.Close()
	}
	return nil
}

// Recover rebuilds run state from the WAL directory after a crash: each
// journal's torn tail (a frame cut mid-write by the crash) is truncated
// away, the surviving record frames are replayed through the same apply
// path live ingest uses, and runs whose journal holds a final frame are
// re-finalized — including their -final-out artifacts. Call before
// ListenIngest; returns the number of recovered runs.
func (d *Daemon) Recover() (int, error) {
	if d.cfg.WALDir == "" {
		return 0, nil
	}
	paths, err := listWALs(d.cfg.WALDir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, path := range paths {
		var rs *runState
		var applyErr error
		goodLen, err := readFrameLog(path, func(typ byte, payload []byte) error {
			if rs == nil {
				var meta walMeta
				if err := unmarshalStrictless(payload, &meta); err != nil {
					return err
				}
				rs = d.newRunState(meta.ID, meta.Seed, meta.LargestCores, meta.EndTimeS, meta.Source)
				return nil
			}
			rs.frames.Add(1)
			if applyErr == nil {
				applyErr = d.applyRecovered(rs, typ, payload)
			}
			return nil
		})
		if err != nil {
			d.logf("tgobsd: recovery: skipping %s: %v", path, err)
			continue
		}
		if applyErr != nil {
			d.logf("tgobsd: recovery: run %s: stopping replay at seq %d: %v",
				rs.ID, rs.haveSeq.Load(), applyErr)
		}
		if st, err := os.Stat(path); err == nil && st.Size() > goodLen {
			if err := os.Truncate(path, goodLen); err != nil {
				d.logf("tgobsd: recovery: truncate %s: %v", path, err)
			}
		}
		rs.publish()
		d.mu.Lock()
		if _, taken := d.runs[rs.ID]; taken {
			d.mu.Unlock()
			d.logf("tgobsd: recovery: run %s already registered, skipping %s", rs.ID, path)
			continue
		}
		d.runs[rs.ID] = rs
		d.mu.Unlock()
		d.recoveries.Add(1)
		n++
		d.logf("tgobsd: recovered run %s from WAL (seq %d, %d packets, finalized %v)",
			rs.ID, rs.haveSeq.Load(), rs.packets.Load(), rs.finalized.Load())
	}
	return n, nil
}

// applyRecovered replays one WAL record frame through the live apply
// path.
func (d *Daemon) applyRecovered(rs *runState, typ byte, payload []byte) error {
	seq, body, err := splitSeq(payload)
	if err != nil {
		return err
	}
	if seq <= rs.haveSeq.Load() {
		return nil // duplicate landed in the journal; harmless
	}
	switch typ {
	case framePacket:
		return rs.applyPacket(seq, body)
	case frameFinal:
		end, err := decodeFinalFrame(body)
		if err != nil {
			return err
		}
		rs.haveSeq.Store(seq)
		return d.finalizeRun(rs, end)
	default:
		return fmt.Errorf("%w: unexpected WAL frame %q", ErrBadFrame, typ)
	}
}

// Recoveries reports how many runs were rebuilt from WALs at startup.
func (d *Daemon) Recoveries() uint64 { return d.recoveries.Load() }

// newRunState builds a fresh run slice (processor, registry, accounting
// database) for the given identity.
func (d *Daemon) newRunState(id string, seed uint64, largest int, endTimeS float64, source string) *runState {
	rs := &runState{
		ID: id, Seed: seed, Largest: largest,
		Source: source, EndTimeS: endTimeS,
		central: accounting.NewCentral(nil),
		reg:     telemetry.New(),
	}
	rs.proc = stream.New(stream.Config{
		LargestCores: largest,
		Registry:     rs.reg,
	})
	return rs
}

// register resolves a hello into a run state. A resume hello (seed must
// match) gets its run back — taking over from a half-open previous
// connection, or recreating the run at offset zero when this daemon has
// never seen it (restart without a WAL; the producer's journal replays
// everything). A non-resume hello whose requested ID collides gets a
// uniquified ID; a resume with the wrong seed gets nil (the handler
// rejects it — replaying one run into another would corrupt both).
func (d *Daemon) register(h *Hello) (*runState, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq++
	id := h.Run
	if id == "" {
		id = fmt.Sprintf("run-%d", d.seq)
	}
	if rs, ok := d.runs[id]; ok {
		if h.Resume {
			if rs.Seed != h.Seed {
				return nil, false
			}
			rs.reconnects.Add(1)
			d.reconnects.Add(1)
			if c := rs.curConn.Load(); c != nil {
				(*c).Close()
			}
			return rs, true
		}
		base := id
		for n := 2; ; n++ {
			id = fmt.Sprintf("%s#%d", base, n)
			if _, taken := d.runs[id]; !taken {
				break
			}
		}
	}
	rs := d.newRunState(id, h.Seed, h.LargestCores, h.EndTimeS, h.Source)
	d.runs[id] = rs
	return rs, false
}

// reject answers a hopeless handshake with a typed error frame; Dial
// surfaces the reason wrapped in ErrBadHello.
func (d *Daemon) reject(conn net.Conn, msg string) {
	d.decodeErrors.Add(1)
	writeFrame(conn, frameError, []byte(msg))
	d.logf("tgobsd: %s: rejected: %s", conn.RemoteAddr(), msg)
}

// handleConn services one push connection end to end.
func (d *Daemon) handleConn(conn net.Conn) {
	defer conn.Close()
	d.mu.Lock()
	d.conns[conn] = struct{}{}
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		delete(d.conns, conn)
		d.mu.Unlock()
	}()
	d.connections.Add(1)
	br := newCountingReader(conn, &d.bytesIn)

	if err := readMagic(br); err != nil {
		d.decodeErrors.Add(1)
		d.logf("tgobsd: %s: %v", conn.RemoteAddr(), err)
		return
	}
	// The hello is read under a much tighter payload cap than the general
	// wire limit: no 64 MiB allocation for a peer that has not even
	// identified itself yet.
	typ, payload, err := readFrameLimited(br, maxHelloPayload)
	if err != nil {
		d.reject(conn, fmt.Sprintf("bad hello frame: %v", err))
		return
	}
	if typ != frameHello {
		d.reject(conn, fmt.Sprintf("want hello, got frame %q", typ))
		return
	}
	var h Hello
	if err := unmarshalStrictless(payload, &h); err != nil {
		d.reject(conn, fmt.Sprintf("bad hello: %v", err))
		return
	}
	if err := validateRunID(h.Run); err != nil {
		d.reject(conn, err.Error())
		return
	}
	rs, resumed := d.register(&h)
	if rs == nil {
		d.reject(conn, fmt.Sprintf("resume refused: seed mismatch for run %q", h.Run))
		return
	}
	// Take ownership of the run. On a resume takeover, register already
	// closed the previous connection; this blocks until its handler
	// finishes the in-flight frame and releases.
	rs.ownMu.Lock()
	rs.curConn.Store(&conn)
	rs.connected.Store(true)
	if d.cfg.WALDir != "" && rs.wal == nil && !rs.finalized.Load() {
		wal, err := d.openWAL(rs)
		if err != nil {
			d.logf("tgobsd: run %s: WAL open failed, journaling off: %v", rs.ID, err)
		} else {
			rs.wal = wal
		}
	}
	defer func() {
		if rs.wal != nil && !d.killed.Load() {
			rs.wal.sync()
		}
		rs.connected.Store(false)
		rs.curConn.Store(nil)
		rs.ownMu.Unlock()
		d.disconnects.Add(1)
		d.logf("tgobsd: run %s disconnected (%d frames, %d bytes)",
			rs.ID, rs.frames.Load(), rs.bytes.Load())
	}()
	ack := helloAck{Run: rs.ID, HaveSeq: rs.haveSeq.Load(), Finalized: rs.finalized.Load()}
	if err := writeFrame(conn, frameHelloAck, marshalJSON(&ack)); err != nil {
		return
	}
	verb := "connected"
	if resumed {
		verb = fmt.Sprintf("resumed at seq %d", ack.HaveSeq)
	}
	d.logf("tgobsd: run %s %s from %s (seed %d, source %q)",
		rs.ID, verb, conn.RemoteAddr(), rs.Seed, rs.Source)

	if err := d.ingestFrames(rs, conn, br); err != nil {
		d.decodeErrors.Add(1)
		d.logf("tgobsd: run %s: %v", rs.ID, err)
	}
	if !rs.finalized.Load() {
		rs.publish()
	}
}

// ingestFrames applies the frames that follow the hello until the
// stream ends (nil) or a frame fails to read or apply. Every frame is
// read into one buffer from the frame-buffer free list that grows to the
// largest frame and goes back, poisoned, when the loop returns, so
// applyFrame and everything it calls must not keep any part of a
// payload.
func (d *Daemon) ingestFrames(rs *runState, conn net.Conn, r io.Reader) error {
	buf := takeFrameBuf()
	defer func() { giveFrameBuf(buf) }()
	for {
		typ, payload, err := readFrameInto(r, maxFramePayload, &buf)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		rs.frames.Add(1)
		rs.bytes.Add(uint64(len(payload)))
		rs.lastFrameUNS.Store(time.Now().UnixNano())
		if err := d.applyFrame(rs, conn, typ, payload); err != nil {
			return err
		}
	}
}

// openWAL opens (appending) or creates a run's write-ahead log.
func (d *Daemon) openWAL(rs *runState) (*frameLog, error) {
	if err := os.MkdirAll(d.cfg.WALDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(walPath(d.cfg.WALDir, rs.ID), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return newFrameLog(f, walMeta{
		ID: rs.ID, Seed: rs.Seed, LargestCores: rs.Largest,
		EndTimeS: rs.EndTimeS, Source: rs.Source,
	}, true)
}

// applyFrame applies one decoded frame to the run. It runs on the run's
// connection goroutine, the sole owner of the run's mutable state. The
// payload is the connection's read buffer and is overwritten by the next
// frame, so nothing here keeps it: the WAL's buffered writer copies it,
// IngestWire decodes into new records, the snapshot decoder copies, and
// the metrics exposition is copied before it is published.
//
// Record frames (packet, final) carry sequence numbers: anything at or
// below the high-water mark is a replayed duplicate and is dropped (a
// duplicate final gets its ack re-sent — the original ack may have died
// with the connection), a gap is a protocol violation, and the next
// frame in order is journaled to the WAL *before* it is applied.
func (d *Daemon) applyFrame(rs *runState, conn net.Conn, typ byte, payload []byte) error {
	switch typ {
	case framePacket:
		d.framePackets.Add(1)
		seq, body, err := splitSeq(payload)
		if err != nil {
			return err
		}
		have := rs.haveSeq.Load()
		if seq <= have {
			rs.dups.Add(1)
			d.dupFrames.Add(1)
			return nil
		}
		if seq != have+1 {
			return fmt.Errorf("%w: run %s: sequence gap (got %d, want %d)", ErrBadFrame, rs.ID, seq, have+1)
		}
		if rs.finalized.Load() {
			return fmt.Errorf("%w: run %s: packet seq %d after final", ErrBadFrame, rs.ID, seq)
		}
		d.walAppend(rs, framePacket, payload)
		if err := rs.applyPacket(seq, body); err != nil {
			return err
		}
		if rs.packets.Load()%publishEvery == 1 {
			rs.publish()
		}
	case frameSnapshot:
		d.frameSnaps.Add(1)
		s := &telemetry.Snapshot{}
		if err := unmarshalStrictless(payload, s); err != nil {
			return err
		}
		rs.lastSnap.Store(s)
	case frameMetrics:
		d.frameMetrics.Add(1)
		om := append([]byte(nil), payload...)
		rs.metricsOM.Store(&om)
	case frameFinal:
		d.frameFinals.Add(1)
		seq, body, err := splitSeq(payload)
		if err != nil {
			return err
		}
		have := rs.haveSeq.Load()
		if seq <= have {
			rs.dups.Add(1)
			d.dupFrames.Add(1)
			return writeFrame(conn, frameFinalAck, nil)
		}
		if seq != have+1 {
			return fmt.Errorf("%w: run %s: sequence gap (got %d, want %d)", ErrBadFrame, rs.ID, seq, have+1)
		}
		end, err := decodeFinalFrame(body)
		if err != nil {
			return err
		}
		// The log syncs a final frame before the ack below releases the
		// producer from its delivery obligation.
		d.walAppend(rs, frameFinal, payload)
		rs.haveSeq.Store(seq)
		if err := d.finalizeRun(rs, end); err != nil {
			return err
		}
		return writeFrame(conn, frameFinalAck, nil)
	default:
		return fmt.Errorf("%w: unknown frame type %q", ErrBadFrame, typ)
	}
	return nil
}

// walAppend journals one record frame ahead of processing. A disk
// failure — a failed write, or the fsync a final frame forces — degrades
// the run to non-journaled (logged once) rather than killing the
// connection: availability over durability, and the producer's journal
// still covers the replay.
func (d *Daemon) walAppend(rs *runState, typ byte, payload []byte) {
	if rs.wal == nil {
		return
	}
	if err := rs.wal.append(typ, payload); err != nil {
		d.logf("tgobsd: run %s: WAL append failed, journaling off: %v", rs.ID, err)
		rs.wal.close(false)
		rs.wal = nil
	}
}

// applyPacket ingests one in-order sequenced packet body. Ingest is in
// arrival order — exactly the producer's flush order — so the final
// classification walks the same records in the same sequence the
// producer's own database holds. The job records' strings go into the
// run's table only once the database has admitted the packet, so a
// rejected frame leaves the table as it was; the stream processor
// adopts the table with the first packet offered, and is not offered a
// packet the database skipped as a re-delivery.
func (rs *runState) applyPacket(seq uint64, body []byte) error {
	at, wire, err := splitPacketFrame(body)
	if err != nil {
		return err
	}
	pkt, err := rs.central.IngestWire(wire)
	if err != nil {
		return err
	}
	if pkt != nil {
		rs.proc.OfferPacket(des.Time(at), pkt)
	}
	rs.haveSeq.Store(seq)
	rs.packets.Add(1)
	return nil
}

// publishEvery is the packet-frame stride of mid-run publication: a run
// publishes at its first packet frame and at every publishEvery-th after
// it, so the daemon's work per record does not depend on how fast the
// host is. Recovery, finalization and a disconnect before the final
// always publish.
const publishEvery = 256

// publish renders and publishes the run's live payloads. Runs on the
// connection goroutine.
func (rs *runState) publish() {
	rs.publishes.Add(1)
	mp := rs.proc.Modalities()
	dp := rs.proc.Drift()
	mj := stream.MarshalPayload(mp)
	dj := stream.MarshalPayload(dp)
	rs.modalities.Store(&mj)
	rs.drift.Store(&dj)
	rs.modPayload.Store(mp)
	rs.dftPayload.Store(dp)
	var buf bytes.Buffer
	if err := rs.reg.WriteOpenMetrics(&buf); err == nil {
		om := buf.Bytes()
		rs.streamOM.Store(&om)
	}
}

// finalizeRun closes a run: the stream clock advances to the announced
// end (expiring trailing windows exactly where the producer's run ended),
// the final payloads are published, and the byte-exact usage-by-modality
// report is built by classifying the arrival-order accounting database
// with the unchanged batch classifier — the same code path, over the same
// records in the same order, as the producer's own report.
func (d *Daemon) finalizeRun(rs *runState, end float64) error {
	if end <= 0 {
		end = rs.EndTimeS
	}
	if end > 0 {
		rs.proc.Advance(des.Time(end))
	}
	cl := core.NewClassifier(core.Config{LargestCores: rs.Largest})
	rep := core.BuildReport(rs.central, cl.Classify(rs.central))
	var buf bytes.Buffer
	if err := core.ModalityTable(rep).WriteText(&buf); err != nil {
		return err
	}
	report := buf.Bytes()
	rs.report.Store(&report)
	rs.publish()
	rs.finalized.Store(true)
	d.logf("tgobsd: run %s finalized (%d jobs, %d packets)",
		rs.ID, rs.central.Len(), rs.packets.Load())
	if d.cfg.FinalDir != "" {
		if err := os.MkdirAll(d.cfg.FinalDir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(d.cfg.FinalDir, rs.ID+".modality.txt"), report, 0o644); err != nil {
			return err
		}
		if mj := rs.modalities.Load(); mj != nil {
			if err := os.WriteFile(filepath.Join(d.cfg.FinalDir, rs.ID+".modalities.json"), *mj, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// runList returns the run states sorted by ID — the deterministic order
// every federated view and listing uses.
func (d *Daemon) runList() []*runState {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*runState, 0, len(d.runs))
	for _, rs := range d.runs {
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Run returns the state for one run ID (nil when unknown).
func (d *Daemon) run(id string) *runState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.runs[id]
}

// RunReport returns a finalized run's usage-by-modality table text
// (nil until the run's final frame has been processed).
func (d *Daemon) RunReport(id string) []byte {
	rs := d.run(id)
	if rs == nil {
		return nil
	}
	if p := rs.report.Load(); p != nil {
		return *p
	}
	return nil
}

// RunCentralExport writes a run's arrival-order accounting database in
// the JSON-lines export format (what tgsim -export writes as acct.jsonl),
// so daemon-side records can be diffed against producer exports.
func (d *Daemon) RunCentralExport(id string, w io.Writer) error {
	rs := d.run(id)
	if rs == nil {
		return fmt.Errorf("observatory: unknown run %q", id)
	}
	if !rs.finalized.Load() {
		return fmt.Errorf("observatory: run %q not finalized", id)
	}
	// Safe: after finalize the owning goroutine no longer mutates the
	// database (applyFrame rejects record frames past the final, and a
	// resumed connection to a finalized run only ever re-acks, so no
	// decode interns into its symbol table), and Export only reads.
	return rs.central.Export(w)
}

// RunIDs returns the known run IDs, sorted.
func (d *Daemon) RunIDs() []string {
	runs := d.runList()
	out := make([]string, len(runs))
	for i, rs := range runs {
		out[i] = rs.ID
	}
	return out
}

// countingReader counts bytes into an atomic as they are read.
type countingReader struct {
	r io.Reader
	n *atomic.Uint64
}

func newCountingReader(r io.Reader, n *atomic.Uint64) *countingReader {
	return &countingReader{r: r, n: n}
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(uint64(n))
	return n, err
}
