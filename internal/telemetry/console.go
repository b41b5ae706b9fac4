// The HTTP run console. The simulation loop publishes immutable snapshots
// (and pre-rendered OpenMetrics payloads) into atomic pointers; HTTP
// handlers only ever load those pointers. Serving therefore runs entirely
// off-thread: it never locks simulation state, never evaluates gauges, and
// can never perturb event ordering or determinism.
package telemetry

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Console serves the live run console: /metrics (OpenMetrics), /status
// (JSON snapshot), / (a self-contained HTML dashboard), plus any extra
// JSON documents published with PublishJSON (the streaming observatory
// mounts /modalities and /drift). The zero value is not ready; use
// NewConsole.
type Console struct {
	snap    atomic.Pointer[Snapshot]
	metrics atomic.Pointer[[]byte]
	pages   sync.Map // path → *page, immutable payloads
	pprofOn atomic.Bool
	srv     *http.Server
}

// page is one published console document: immutable payload plus its
// content type.
type page struct {
	contentType string
	payload     []byte
}

// NewConsole returns a console with an empty snapshot, so endpoints are
// serviceable before the first publication.
func NewConsole() *Console {
	c := &Console{}
	c.snap.Store(&Snapshot{SimTimeHuman: "0:00:00:00"})
	empty := []byte("# EOF\n")
	c.metrics.Store(&empty)
	return c
}

// Update publishes a snapshot and its matching OpenMetrics payload. Callers
// must treat both as immutable after the call. Safe to call from the
// simulation goroutine while HTTP requests are in flight.
func (c *Console) Update(s *Snapshot, openMetrics []byte) {
	if s != nil {
		c.snap.Store(s)
	}
	if openMetrics != nil {
		c.metrics.Store(&openMetrics)
	}
}

// Snapshot returns the most recently published snapshot.
func (c *Console) Snapshot() *Snapshot { return c.snap.Load() }

// PublishJSON mounts (or refreshes) an extra JSON document at path (e.g.
// "/modalities"). The payload must be treated as immutable after the call;
// a nil payload unmounts the path. Safe to call from the simulation
// goroutine while HTTP requests are in flight.
func (c *Console) PublishJSON(path string, payload []byte) {
	c.PublishPage(path, "application/json; charset=utf-8", payload)
}

// PublishPage mounts (or refreshes) an extra document at path with an
// explicit content type (the perf layer publishes /metrics/runtime as an
// OpenMetrics exposition). A nil payload unmounts the path. Same
// immutability and concurrency contract as PublishJSON.
func (c *Console) PublishPage(path, contentType string, payload []byte) {
	if payload == nil {
		c.pages.Delete(path)
		return
	}
	c.pages.Store(path, &page{contentType: contentType, payload: payload})
}

// EnablePprof mounts the net/http/pprof profiling handlers under
// /debug/pprof/. Off by default: profiling endpoints expose process
// internals and belong behind an explicit flag. pprof handlers only read
// Go runtime state — never the registry or the simulation — so enabling
// them cannot perturb deterministic output (golden-tested).
func (c *Console) EnablePprof() { c.pprofOn.Store(true) }

// ServeHTTP implements http.Handler, routing the three console endpoints.
func (c *Console) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/metrics":
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		w.Write(*c.metrics.Load())
	case "/status":
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(c.snap.Load())
	case "/", "/index.html":
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write([]byte(dashboardHTML))
	default:
		if strings.HasPrefix(r.URL.Path, "/debug/pprof/") {
			if !c.pprofOn.Load() {
				http.NotFound(w, r)
				return
			}
			switch r.URL.Path {
			case "/debug/pprof/cmdline":
				pprof.Cmdline(w, r)
			case "/debug/pprof/profile":
				pprof.Profile(w, r)
			case "/debug/pprof/symbol":
				pprof.Symbol(w, r)
			case "/debug/pprof/trace":
				pprof.Trace(w, r)
			default:
				pprof.Index(w, r)
			}
			return
		}
		if p, ok := c.pages.Load(r.URL.Path); ok {
			pg := p.(*page)
			w.Header().Set("Content-Type", pg.contentType)
			w.Write(pg.payload)
			return
		}
		http.NotFound(w, r)
	}
}

// Serve starts the console's HTTP server on addr (e.g. ":8080"; ":0" picks
// a free port) in a background goroutine and returns the bound address.
// Stop it with Close; an unclosed console lives until the process exits.
func (c *Console) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	c.srv = &http.Server{Handler: c}
	go c.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close gracefully shuts the console down: the listener stops accepting,
// in-flight requests get up to timeout to finish, and stragglers are then
// cut off. No-op when Serve was never called (or already closed).
func (c *Console) Close(timeout time.Duration) error {
	if c.srv == nil {
		return nil
	}
	srv := c.srv
	c.srv = nil
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return srv.Close()
	}
	return nil
}

// dashboardHTML is the self-contained dashboard: no external assets, no
// frameworks; it polls /status and renders a progress bar plus a
// per-machine table.
const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>tgsim run console</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 60rem; color: #1a1a2e; }
h1 { font-size: 1.2rem; } code { background: #f0f0f5; padding: 0 .3em; }
#bar { height: 1.2rem; background: #e8e8f0; border-radius: .3rem; overflow: hidden; }
#fill { height: 100%; width: 0; background: #4a6fa5; transition: width .3s; }
table { border-collapse: collapse; margin-top: 1rem; width: 100%; }
th, td { text-align: left; padding: .25rem .75rem; border-bottom: 1px solid #e0e0e8; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
#stats { margin: .75rem 0; color: #555; }
.done #fill { background: #3c8c5a; }
</style>
</head>
<body>
<h1>tgsim run console</h1>
<div id="bar"><div id="fill"></div></div>
<div id="stats">waiting for first snapshot&hellip;</div>
<table id="machines"><thead>
<tr><th>machine</th><th class="num">queued</th><th class="num">running</th><th class="num">utilization</th></tr>
</thead><tbody></tbody></table>
<div id="modpanel" style="display:none">
<h1>Live modalities <span id="stream" style="font-weight:normal;color:#555"></span></h1>
<table id="modalities"><thead>
<tr><th>modality</th><th class="num">jobs 24h</th><th class="num">NUs 24h</th><th class="num">NU share</th><th class="num">confidence</th></tr>
</thead><tbody></tbody></table>
</div>
<div id="driftpanel" style="display:none">
<h1>Classifier drift</h1>
<table id="drift"><thead>
<tr><th>window</th><th class="num">events</th><th class="num">disagree</th><th class="num">drift</th><th class="num">peak</th></tr>
</thead><tbody></tbody></table>
</div>
<p>Raw endpoints: <a href="/status"><code>/status</code></a> (JSON),
<a href="/metrics"><code>/metrics</code></a> (OpenMetrics),
<a href="/modalities"><code>/modalities</code></a> and
<a href="/drift"><code>/drift</code></a> (streaming observatory, when attached).</p>
<script>
function fillRows(sel, rows) {
  const tb = document.querySelector(sel);
  tb.innerHTML = '';
  for (const cells of rows) {
    const tr = document.createElement('tr');
    for (const v of cells) {
      const td = document.createElement('td');
      td.textContent = v;
      if (typeof v === 'number' || (typeof v === 'string' && v.endsWith('%'))) td.className = 'num';
      tr.appendChild(td);
    }
    tb.appendChild(tr);
  }
}
async function tickStream() {
  try {
    const r = await fetch('/modalities');
    if (r.ok) {
      const m = await r.json();
      document.getElementById('modpanel').style.display = '';
      const total = (m.windows || []).reduce((a, w) => a + (w.window === '24h' ? w.total_nus : 0), 0);
      const w24 = (m.windows || []).find(w => w.window === '24h') || {rows: []};
      fillRows('#modalities tbody', (w24.rows || []).map(x =>
        [x.modality, x.jobs, Math.round(x.nus).toLocaleString(),
         total > 0 ? (100 * x.nus / total).toFixed(1) + '%' : '0.0%',
         (100 * x.confidence).toFixed(0) + '%']));
    }
    const d = await fetch('/drift');
    if (d.ok) {
      const dj = await d.json();
      document.getElementById('driftpanel').style.display = '';
      fillRows('#drift tbody', (dj.windows || []).map(x =>
        [x.window, x.events, x.disagree, (100 * x.rate).toFixed(2) + '%',
         (100 * x.peak).toFixed(2) + '%']));
    }
  } catch (e) { /* panels stay hidden until the endpoints exist */ }
  setTimeout(tickStream, 2000);
}
async function tick() {
  try {
    const r = await fetch('/status');
    const s = await r.json();
    document.body.classList.toggle('done', !!s.done);
    document.getElementById('fill').style.width = (100 * s.progress).toFixed(1) + '%';
    const eps = s.events_per_sec ? (s.events_per_sec / 1000).toFixed(0) + 'k ev/s' : '';
    document.getElementById('stats').textContent =
      (100 * s.progress).toFixed(1) + '%  ·  sim ' + s.sim_time +
      '  ·  ' + s.events.toLocaleString() + ' events ' + eps +
      '  ·  finished ' + s.jobs_finished.toLocaleString() +
      (s.done ? '  ·  done' : (s.eta_seconds ? '  ·  eta ' + Math.round(s.eta_seconds) + 's' : ''));
    if (s.stream) {
      document.getElementById('stream').textContent =
        '· ingested ' + s.stream.ingested.toLocaleString();
    }
    const tb = document.querySelector('#machines tbody');
    tb.innerHTML = '';
    for (const m of (s.machines || [])) {
      const tr = document.createElement('tr');
      for (const v of [m.id, m.queue_depth, m.running, (100 * m.utilization).toFixed(1) + '%']) {
        const td = document.createElement('td');
        td.textContent = v;
        if (typeof v === 'number' || v.endsWith('%')) td.className = 'num';
        tr.appendChild(td);
      }
      tb.appendChild(tr);
    }
    if (!s.done) setTimeout(tick, 1000); else setTimeout(tick, 5000);
  } catch (e) { setTimeout(tick, 2000); }
}
tick();
tickStream();
</script>
</body>
</html>
`
