package observatory

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/experiments"
	"github.com/tgsim/tgmod/internal/scenario"
)

// recordedRun is one quick-scale run as a push sees it: every flushed
// packet with its flush time, plus what the producer reports.
type recordedRun struct {
	packets []recordedPacket
	records int // job, transfer, gateway-attribute and storage records
	seed    uint64
	largest int
	end     float64
	table   []byte // the producer's usage-by-modality table
}

type recordedPacket struct {
	at  des.Time
	pkt *accounting.Packet
}

var quickRun = sync.OnceValues(func() (*recordedRun, error) {
	run := &recordedRun{seed: 7}
	cfg := experiments.StandardConfig(run.seed, experiments.Quick)
	cfg.Observers = append(cfg.Observers, scenario.TapPackets(func(at des.Time, p *accounting.Packet) {
		run.packets = append(run.packets, recordedPacket{at, p})
		run.records += len(p.Jobs) + len(p.Transfers) + len(p.GatewayAttrs) + len(p.Storage)
	}))
	res, err := scenario.Run(cfg)
	if err != nil {
		return nil, err
	}
	run.largest = res.LargestCores
	run.end = float64(cfg.Horizon + cfg.DrainTime)
	cl := core.NewClassifier(core.Config{LargestCores: res.LargestCores})
	var table bytes.Buffer
	if err := core.ModalityTable(core.BuildReport(res.Central, cl.Classify(res.Central))).WriteText(&table); err != nil {
		return nil, err
	}
	run.table = table.Bytes()
	return run, nil
})

// recordQuickRun records quick seed 7 once per test binary.
func recordQuickRun(tb testing.TB) *recordedRun {
	tb.Helper()
	run, err := quickRun()
	if err != nil {
		tb.Fatal(err)
	}
	return run
}

// frames returns the run as a pusher's writer puts it on the wire after
// the hello: one sequenced packet frame per packet, then the final frame.
func (r *recordedRun) frames() []byte {
	var out bytes.Buffer
	for i, rp := range r.packets {
		payload := rp.pkt.AppendWire(recordFrame(float64(rp.at)))
		stampSeq(payload, uint64(i+1))
		writeFrame(&out, framePacket, payload)
	}
	final := recordFrame(r.end)
	stampSeq(final, uint64(len(r.packets)+1))
	writeFrame(&out, frameFinal, final)
	return out.Bytes()
}

// discardConn is a connection that swallows every write.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }
func (discardConn) Close() error                { return nil }

// BenchmarkDaemonIngest is the observatory's frame-ingest layer: the
// frames of one quick-scale run read and applied the way a connection
// handler does it, from the first packet frame to the finalized report,
// with the write-ahead log off and on. One op is one whole run into a
// fresh run state; records/op converts the per-op figures to per-record.
func BenchmarkDaemonIngest(b *testing.B) {
	run := recordQuickRun(b)
	wire := run.frames()
	for _, tc := range []struct {
		name string
		wal  bool
	}{{"wal=off", false}, {"wal=on", true}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := Config{}
			if tc.wal {
				cfg.WALDir = b.TempDir()
			}
			d := NewDaemon(cfg)
			r := bytes.NewReader(wire)
			b.ReportAllocs()
			b.ReportMetric(float64(run.records), "records/op")
			for i := 0; i < b.N; i++ {
				rs := d.newRunState("bench", run.seed, run.largest, run.end, "bench")
				if tc.wal {
					wal, err := d.openWAL(rs)
					if err != nil {
						b.Fatal(err)
					}
					rs.wal = wal
				}
				r.Reset(wire)
				if err := d.ingestFrames(rs, discardConn{}, r); err != nil {
					b.Fatal(err)
				}
				if rs.wal != nil {
					rs.wal.close(false)
					os.Remove(rs.wal.path)
				}
				if !bytes.Equal(*rs.report.Load(), run.table) {
					b.Fatal("the daemon's report differs from the producer's")
				}
			}
		})
	}
}

// BenchmarkPushRun is the producer half of the same layer: the packets of
// one quick-scale run pushed through a Pusher into an in-process daemon
// with a write-ahead log, from dial to final ack, with the checks
// tgbench's obsd-ingest makes. One op is one push. Every 16 pushes a
// fresh daemon takes over, made off the clock, so the finished runs a
// daemon keeps do not pile up; the frame-buffer list carries over, as it
// does in a process that pushes many runs. records/op converts the
// per-op figures to per-record.
func BenchmarkPushRun(b *testing.B) {
	run := recordQuickRun(b)
	dir := b.TempDir()
	var d *Daemon
	var addr string
	stop := func() {
		if d != nil {
			if err := d.Shutdown(5 * time.Second); err != nil {
				b.Fatal(err)
			}
		}
	}
	defer stop()
	b.ReportAllocs()
	b.ReportMetric(float64(run.records), "records/op")
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			b.StopTimer()
			stop()
			d = NewDaemon(Config{WALDir: filepath.Join(dir, fmt.Sprint(i))})
			var err error
			if addr, err = d.ListenIngest("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		opts := DefaultPushOptions()
		opts.SpillPath = filepath.Join(dir, "push.spill")
		p, err := DialPush(addr, Hello{Run: "bench", Seed: run.seed, LargestCores: run.largest, EndTimeS: run.end, Source: "bench"}, opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, rp := range run.packets {
			p.sendPacket(rp.at, rp.pkt)
		}
		if err := p.Finish(run.end); err != nil {
			b.Fatal(err)
		}
		if p.Lossy() || !bytes.Equal(d.RunReport(p.RunID()), run.table) {
			b.Fatalf("lossy %v, or the daemon's report differs from the producer's", p.Lossy())
		}
	}
}
