package observatory

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// This file holds the one durable store of the fault-tolerant push path:
// the frame log, an append-only file of record frames exactly as they
// cross the wire. Both ends of a push keep one.
//
// Producer side: the spill journal. Every record frame (packet, final)
// is logged before its first write attempt and kept until the run
// finishes, because a reconnect may have to replay from any point the
// daemon has not applied — the daemon's resume offset is only learned at
// reconnect time. The journal is never synced: a producer crash ends the
// run anyway.
//
// Daemon side: a per-run write-ahead log. Every record frame is appended
// (fsync batched) *before* it is applied to the run's processor and
// accounting database, so a daemon crash loses at most the unsynced
// tail — and whatever the tail loses, the producer still holds and
// replays, because the recovered resume offset tells it exactly where
// the daemon's durable state ends.

// walMagic brands a frame log file.
const walMagic = "TGOWAL1\n"

// walSyncEvery batches fsyncs: a durable log is synced after this many
// appended frames, on every final frame, and at handler exit. A crash
// loses at most walSyncEvery frames of tail — which the producer's
// journal replays on reconnect.
const walSyncEvery = 256

// walMeta is the run identity persisted in the log's hello frame, enough
// to rebuild the runState on recovery.
type walMeta struct {
	ID           string  `json:"id"`
	Seed         uint64  `json:"seed"`
	LargestCores int     `json:"largest_cores"`
	EndTimeS     float64 `json:"end_time_s"`
	Source       string  `json:"source,omitempty"`
}

// frameLog is one run's frame log: the magic, a hello frame holding the
// run meta, then record frames exactly as they cross the wire (sequence
// numbers included). It is owned by one goroutine — the pusher's writer,
// or the run's connection handler — so appends, syncs and replays never
// race.
type frameLog struct {
	path     string
	f        *os.File
	w        *bufio.Writer
	durable  bool // fsync every walSyncEvery frames and on every final frame
	unsynced int
	hdr      frameHeader
}

// newFrameLog wraps an open file, writing the header when the file is
// empty (a durable log syncs it at once). Appends go to the file's end.
func newFrameLog(f *os.File, meta walMeta, durable bool) (*frameLog, error) {
	l := &frameLog{path: f.Name(), f: f, w: bufio.NewWriter(f), durable: durable}
	st, err := f.Stat()
	if err == nil && st.Size() == 0 {
		if _, err = l.w.WriteString(walMagic); err == nil {
			err = writeFrame(l.w, frameHello, marshalJSON(&meta))
		}
		if err == nil && durable {
			err = l.sync()
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// append logs one record frame, syncing a durable log on the batch
// cadence and on the final frame.
func (l *frameLog) append(typ byte, payload []byte) error {
	if err := l.hdr.write(l.w, typ, payload); err != nil {
		return err
	}
	if !l.durable {
		return nil
	}
	l.unsynced++
	if l.unsynced >= walSyncEvery || typ == frameFinal {
		return l.sync()
	}
	return nil
}

// sync flushes the buffer and fsyncs the file.
func (l *frameLog) sync() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	l.unsynced = 0
	return l.f.Sync()
}

// close syncs (unless a crash is being simulated) and closes the file.
func (l *frameLog) close(sync bool) {
	if l == nil {
		return
	}
	if sync {
		l.sync()
	}
	l.f.Close()
}

// walPath returns the WAL file for a run ID. IDs are pre-validated
// ([A-Za-z0-9._-] plus daemon-introduced '#'), so the name is safe.
func walPath(dir, id string) string {
	return filepath.Join(dir, id+".wal")
}

// readFrameLog parses a frame log, feeding the hello frame and then each
// record frame to each, in order. Every frame is read into one buffer,
// so each must not keep payload past its return. It tolerates a torn
// tail: a crash can cut the file mid-frame, so parsing stops quietly at
// the first malformed frame — everything before the tear is whole by
// construction (frames are appended whole). goodLen is the length of the
// header plus every frame each accepted; an error from each stops the
// read and is returned.
func readFrameLog(path string, each func(typ byte, payload []byte) error) (goodLen int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != walMagic {
		return 0, fmt.Errorf("%w: not a frame log: %s", ErrBadFrame, path)
	}
	var buf []byte
	typ, payload, err := readFrameInto(br, maxFramePayload, &buf)
	if err != nil || typ != frameHello {
		return 0, fmt.Errorf("%w: frame log %s missing meta header", ErrBadFrame, path)
	}
	goodLen = int64(len(walMagic))
	for {
		if err := each(typ, payload); err != nil {
			return goodLen, err
		}
		goodLen += int64(5 + len(payload))
		if typ, payload, err = readFrameInto(br, maxFramePayload, &buf); err != nil {
			// io.EOF is a clean end; anything else is the torn tail of a
			// crash — recovery keeps what parsed and truncates the rest.
			return goodLen, nil
		}
	}
}

// listWALs returns the WAL files under dir, sorted by name so recovery
// order (and therefore run registration order) is deterministic.
func listWALs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".wal") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}
