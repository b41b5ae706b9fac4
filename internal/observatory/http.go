package observatory

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"github.com/tgsim/tgmod/internal/telemetry"
)

// RunInfo is one row of the /runs listing: identity, liveness, ingest
// totals, and the producer's latest progress snapshot fields.
type RunInfo struct {
	ID        string `json:"id"`
	Seed      uint64 `json:"seed"`
	Source    string `json:"source,omitempty"`
	Connected bool   `json:"connected"`
	Finalized bool   `json:"finalized"`
	// LagSeconds is wall time since the last frame (-1 before the first).
	LagSeconds float64 `json:"lag_seconds"`
	Frames     uint64  `json:"frames"`
	Packets    uint64  `json:"packets"`
	Bytes      uint64  `json:"bytes"`
	Reconnects uint64  `json:"reconnects"`
	// Publishes counts renders of the run's live payloads (see
	// publishEvery).
	Publishes uint64 `json:"publishes"`
	// Progress / SimTime / Done come from the producer's latest snapshot
	// (absent until one arrives).
	Progress float64 `json:"progress,omitempty"`
	SimTime  string  `json:"sim_time,omitempty"`
	Done     bool    `json:"done,omitempty"`
}

// info assembles a run's listing row at request time.
func (rs *runState) info(now time.Time) RunInfo {
	ri := RunInfo{
		ID: rs.ID, Seed: rs.Seed, Source: rs.Source,
		Connected:  rs.connected.Load(),
		Finalized:  rs.finalized.Load(),
		LagSeconds: -1,
		Frames:     rs.frames.Load(),
		Packets:    rs.packets.Load(),
		Bytes:      rs.bytes.Load(),
		Reconnects: rs.reconnects.Load(),
		Publishes:  rs.publishes.Load(),
	}
	if uns := rs.lastFrameUNS.Load(); uns > 0 {
		ri.LagSeconds = now.Sub(time.Unix(0, uns)).Seconds()
	}
	if s := rs.lastSnap.Load(); s != nil {
		ri.Progress = s.Progress
		ri.SimTime = s.SimTimeHuman
		ri.Done = s.Done
	}
	return ri
}

// ServeHTTP routes the daemon console:
//
//	/                 HTML fleet overview
//	/runs             JSON run listing (sorted by run ID)
//	/runs/{id}/status     producer's latest snapshot (as pushed)
//	/runs/{id}/modalities daemon-side streaming usage payload
//	/runs/{id}/drift      daemon-side drift payload
//	/runs/{id}/metrics    producer's pushed OpenMetrics exposition
//	/runs/{id}/stream     daemon-side tg_stream_*/tg_drift_* exposition
//	/runs/{id}/report     final usage-by-modality table (after finalize)
//	/modalities       fleet-federated usage payload across all runs
//	/drift            fleet-federated drift payload across all runs
//	/metrics          the daemon's own tg_obsd_* + tg_runtime_* exposition
//	/debug/pprof/     net/http/pprof (only with Config.Pprof)
func (d *Daemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	if telemetry.ServePprof(w, r, d.cfg.Pprof) {
		return
	}
	switch path {
	case "/", "/index.html":
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write([]byte(obsdHTML))
		return
	case "/runs":
		now := time.Now()
		runs := d.runList()
		infos := make([]RunInfo, len(runs))
		for i, rs := range runs {
			infos[i] = rs.info(now)
		}
		writeJSON(w, infos)
		return
	case "/modalities":
		writePayload(w, d.FleetModalitiesJSON())
		return
	case "/drift":
		writePayload(w, d.FleetDriftJSON())
		return
	case "/metrics":
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		d.writeMetaMetrics(w)
		return
	}
	if rest, ok := strings.CutPrefix(path, "/runs/"); ok {
		id, sub, _ := strings.Cut(rest, "/")
		rs := d.run(id)
		if rs == nil {
			http.NotFound(w, r)
			return
		}
		switch sub {
		case "status":
			if s := rs.lastSnap.Load(); s != nil {
				writeJSON(w, s)
			} else {
				writeJSON(w, struct{}{})
			}
		case "modalities":
			writePayload(w, loadBytes(&rs.modalities))
		case "drift":
			writePayload(w, loadBytes(&rs.drift))
		case "metrics":
			om := loadBytes(&rs.metricsOM)
			if om == nil {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			w.Write(om)
		case "stream":
			om := loadBytes(&rs.streamOM)
			if om == nil {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			w.Write(om)
		case "report":
			rep := loadBytes(&rs.report)
			if rep == nil {
				http.Error(w, "run not finalized", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.Write(rep)
		case "":
			writeJSON(w, rs.info(time.Now()))
		default:
			http.NotFound(w, r)
		}
		return
	}
	http.NotFound(w, r)
}

// ServeConsole starts the console HTTP server on addr (":0" picks a free
// port) and returns the bound address. Close shuts it down.
func (d *Daemon) ServeConsole(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: d}
	d.mu.Lock()
	d.httpSrv = srv
	d.mu.Unlock()
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

func loadBytes(p *atomic.Pointer[[]byte]) []byte {
	if b := p.Load(); b != nil {
		return *b
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// writePayload serves a pre-rendered JSON document, or an empty object
// when nothing has been published yet.
func writePayload(w http.ResponseWriter, payload []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if payload == nil {
		payload = []byte("{}\n")
	}
	w.Write(payload)
}

// writeMetaMetrics renders the daemon's own tg_obsd_* exposition. The
// counters are plain atomics folded into text at scrape time, so the
// ingest path never touches a registry and scrapes never contend with
// connections.
func (d *Daemon) writeMetaMetrics(w http.ResponseWriter) {
	now := time.Now()
	runs := d.runList()
	var live, done, idle int
	for _, rs := range runs {
		switch {
		case rs.finalized.Load():
			done++
		case rs.connected.Load():
			live++
		default:
			idle++
		}
	}
	fmt.Fprintf(w, "# TYPE tg_obsd_connections counter\n")
	fmt.Fprintf(w, "# HELP tg_obsd_connections Push connections accepted since start.\n")
	fmt.Fprintf(w, "tg_obsd_connections_total %d\n", d.connections.Load())
	fmt.Fprintf(w, "# TYPE tg_obsd_disconnects counter\n")
	fmt.Fprintf(w, "# HELP tg_obsd_disconnects Push connections that ended.\n")
	fmt.Fprintf(w, "tg_obsd_disconnects_total %d\n", d.disconnects.Load())
	fmt.Fprintf(w, "# TYPE tg_obsd_reconnects counter\n")
	fmt.Fprintf(w, "# HELP tg_obsd_reconnects Runs that resumed after a broken connection.\n")
	fmt.Fprintf(w, "tg_obsd_reconnects_total %d\n", d.reconnects.Load())
	fmt.Fprintf(w, "# TYPE tg_obsd_recoveries counter\n")
	fmt.Fprintf(w, "# HELP tg_obsd_recoveries Runs rebuilt from write-ahead journals at startup.\n")
	fmt.Fprintf(w, "tg_obsd_recoveries_total %d\n", d.recoveries.Load())
	fmt.Fprintf(w, "# TYPE tg_obsd_dup_frames counter\n")
	fmt.Fprintf(w, "# HELP tg_obsd_dup_frames Replayed record frames deduplicated by sequence number.\n")
	fmt.Fprintf(w, "tg_obsd_dup_frames_total %d\n", d.dupFrames.Load())
	fmt.Fprintf(w, "# TYPE tg_obsd_decode_errors counter\n")
	fmt.Fprintf(w, "# HELP tg_obsd_decode_errors Frames or handshakes the daemon could not decode.\n")
	fmt.Fprintf(w, "tg_obsd_decode_errors_total %d\n", d.decodeErrors.Load())
	fmt.Fprintf(w, "# TYPE tg_obsd_bytes counter\n")
	fmt.Fprintf(w, "# HELP tg_obsd_bytes Raw bytes read off push connections.\n")
	fmt.Fprintf(w, "tg_obsd_bytes_total %d\n", d.bytesIn.Load())
	fmt.Fprintf(w, "# TYPE tg_obsd_frames counter\n")
	fmt.Fprintf(w, "# HELP tg_obsd_frames Frames ingested, by kind.\n")
	fmt.Fprintf(w, "tg_obsd_frames_total{kind=\"packet\"} %d\n", d.framePackets.Load())
	fmt.Fprintf(w, "tg_obsd_frames_total{kind=\"snapshot\"} %d\n", d.frameSnaps.Load())
	fmt.Fprintf(w, "tg_obsd_frames_total{kind=\"metrics\"} %d\n", d.frameMetrics.Load())
	fmt.Fprintf(w, "tg_obsd_frames_total{kind=\"final\"} %d\n", d.frameFinals.Load())
	fmt.Fprintf(w, "# TYPE tg_obsd_runs gauge\n")
	fmt.Fprintf(w, "# HELP tg_obsd_runs Known runs by state.\n")
	fmt.Fprintf(w, "tg_obsd_runs{state=\"live\"} %d\n", live)
	fmt.Fprintf(w, "tg_obsd_runs{state=\"finalized\"} %d\n", done)
	fmt.Fprintf(w, "tg_obsd_runs{state=\"disconnected\"} %d\n", idle)
	fmt.Fprintf(w, "# TYPE tg_obsd_ingest_lag_seconds gauge\n")
	fmt.Fprintf(w, "# HELP tg_obsd_ingest_lag_seconds Wall seconds since each run's last frame.\n")
	for _, rs := range runs {
		if uns := rs.lastFrameUNS.Load(); uns > 0 {
			fmt.Fprintf(w, "tg_obsd_ingest_lag_seconds{run=%q} %.3f\n",
				rs.ID, now.Sub(time.Unix(0, uns)).Seconds())
		}
	}
	// Splice the daemon's own Go runtime families (tg_runtime_*) in before
	// the terminator. The daemon's "event" analog for the throughput gauge
	// is frames ingested across all runs. Meta-metrics are wall-clock-only
	// by nature, so unlike a run console there is no deterministic
	// exposition here to protect.
	frames := d.framePackets.Load() + d.frameSnaps.Load() +
		d.frameMetrics.Load() + d.frameFinals.Load()
	w.Write(d.runtime.AppendOpenMetrics(nil, frames))
	fmt.Fprintf(w, "# EOF\n")
}

// obsdHTML is the self-contained fleet overview: it polls /runs and the
// federated /modalities, linking through to per-run drill-down.
const obsdHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>tgobsd fleet console</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 64rem; color: #1a1a2e; }
h1 { font-size: 1.2rem; } code { background: #f0f0f5; padding: 0 .3em; }
table { border-collapse: collapse; margin-top: 1rem; width: 100%; }
th, td { text-align: left; padding: .25rem .75rem; border-bottom: 1px solid #e0e0e8; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.dead { color: #a33; } .done { color: #3c8c5a; }
</style>
</head>
<body>
<h1>tgobsd fleet console</h1>
<table id="runs"><thead>
<tr><th>run</th><th class="num">seed</th><th>state</th><th class="num">progress</th>
<th class="num">packets</th><th class="num">lag</th></tr>
</thead><tbody></tbody></table>
<h1>Fleet modalities (lifetime)</h1>
<table id="fleet"><thead>
<tr><th>modality</th><th class="num">jobs</th><th class="num">NUs</th><th class="num">NU share</th></tr>
</thead><tbody></tbody></table>
<p>Raw endpoints: <a href="/runs"><code>/runs</code></a>,
<a href="/modalities"><code>/modalities</code></a>,
<a href="/drift"><code>/drift</code></a>,
<a href="/metrics"><code>/metrics</code></a>; per-run:
<code>/runs/{id}/status|modalities|drift|metrics|stream|report</code>.</p>
<script>
async function tick() {
  try {
    const rs = await (await fetch('/runs')).json();
    const tb = document.querySelector('#runs tbody');
    tb.innerHTML = '';
    for (const r of rs) {
      const tr = document.createElement('tr');
      const state = r.finalized ? 'finalized' : (r.connected ? 'live' : 'disconnected');
      const link = '<a href="/runs/' + r.id + '/modalities"><code>' + r.id + '</code></a>';
      const cells = [link, r.seed, state, (100 * (r.progress || 0)).toFixed(1) + '%',
        r.packets, r.lag_seconds >= 0 ? r.lag_seconds.toFixed(1) + 's' : '—'];
      cells.forEach((v, i) => {
        const td = document.createElement('td');
        if (i === 0) td.innerHTML = v; else td.textContent = v;
        if (typeof v === 'number' || String(v).endsWith('%') || String(v).endsWith('s')) td.className = 'num';
        if (i === 2) td.className = state === 'finalized' ? 'done' : (state === 'disconnected' ? 'dead' : '');
        tr.appendChild(td);
      });
      tb.appendChild(tr);
    }
    const m = await (await fetch('/modalities')).json();
    const life = m.lifetime || {rows: []};
    const fb = document.querySelector('#fleet tbody');
    fb.innerHTML = '';
    for (const x of (life.rows || [])) {
      const tr = document.createElement('tr');
      for (const v of [x.modality, x.jobs, Math.round(x.nus).toLocaleString(),
          life.total_nus > 0 ? (100 * x.nus / life.total_nus).toFixed(1) + '%' : '0.0%']) {
        const td = document.createElement('td');
        td.textContent = v;
        if (typeof v === 'number' || String(v).endsWith('%')) td.className = 'num';
        tr.appendChild(td);
      }
      fb.appendChild(tr);
    }
  } catch (e) { /* retry */ }
  setTimeout(tick, 2000);
}
tick();
</script>
</body>
</html>
`
