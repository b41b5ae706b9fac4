// Package network models the federation's wide-area network: sites attach
// to a backbone through access links, and bulk data transfers (the
// GridFTP-style movement that data-centric usage depends on) share link
// bandwidth using max-min fair progressive filling.
//
// The model is flow-level rather than packet-level: each transfer is a
// fluid flow whose instantaneous rate is recomputed whenever the set of
// active flows changes. This is the standard fidelity/performance tradeoff
// for grid simulators; it captures contention, bottlenecks, and transfer
// completion times without simulating packets.
package network

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/tgsim/tgmod/internal/des"
)

// Link is a directed capacity constraint, in bytes/second.
type Link struct {
	ID  string
	Bps float64
	// Progressive-filling state, reset by every reshare: the capacity not
	// yet handed out and the number of unfixed flows still crossing.
	rem   float64
	flows int
}

// Topology is a star WAN: every site has an ingress and egress access link
// to an over-provisioned backbone, which matches how TeraGrid sites hung
// off dedicated 10–30 Gb/s connections. A transfer from A to B traverses
// A's egress link and B's ingress link.
type Topology struct {
	egress  map[string]*Link
	ingress map[string]*Link
	// backbone, when non-nil, is a shared capacity every inter-site flow
	// also traverses; nil models an over-provisioned core.
	backbone *Link
	// RTT between each pair of sites, seconds; used as a fixed startup
	// latency per transfer.
	rtt map[[2]string]float64
}

// NewTopology returns an empty topology with an over-provisioned backbone.
func NewTopology() *Topology {
	return &Topology{
		egress:  make(map[string]*Link),
		ingress: make(map[string]*Link),
		rtt:     make(map[[2]string]float64),
	}
}

// SetBackbone constrains the shared core to gbps gigabits/s. All inter-site
// flows contend for it in addition to their access links; pass 0 to remove
// the constraint.
func (t *Topology) SetBackbone(gbps float64) {
	if gbps <= 0 {
		t.backbone = nil
		return
	}
	t.backbone = &Link{ID: "backbone", Bps: gbps * 1e9 / 8}
}

// AddSite attaches a site with symmetric access bandwidth gbps (gigabits/s)
// to the backbone.
func (t *Topology) AddSite(site string, gbps float64) error {
	if gbps <= 0 {
		return fmt.Errorf("network: site %s: non-positive bandwidth", site)
	}
	if _, dup := t.egress[site]; dup {
		return fmt.Errorf("network: duplicate site %s", site)
	}
	bps := gbps * 1e9 / 8
	t.egress[site] = &Link{ID: site + "-out", Bps: bps}
	t.ingress[site] = &Link{ID: site + "-in", Bps: bps}
	return nil
}

// SetRTT records the round-trip time between two sites (symmetric).
func (t *Topology) SetRTT(a, b string, seconds float64) {
	t.rtt[[2]string{a, b}] = seconds
	t.rtt[[2]string{b, a}] = seconds
}

// RTT returns the round-trip time between two sites, defaulting to 40 ms
// for unspecified pairs and 0 for intra-site movement.
func (t *Topology) RTT(a, b string) float64 {
	if a == b {
		return 0
	}
	if v, ok := t.rtt[[2]string{a, b}]; ok {
		return v
	}
	return 0.04
}

// Transfer is a bulk data movement between two sites.
type Transfer struct {
	ID        int64
	Src, Dst  string
	Bytes     int64
	Streams   int // parallel TCP streams (striping); ≥1
	StartedAt des.Time
	EndedAt   des.Time
	// Campaign/ownership attributes carried into accounting.
	User    string
	Project string
	JobID   int64 // staging transfers reference the job they serve; 0 if none

	// Retries counts how many failed attempts preceded this one (set by
	// Restart). Aborted marks a transfer killed by a network partition; an
	// aborted transfer's done hook never fires — the resilience layer
	// decides whether to Restart it.
	Retries int
	Aborted bool

	remaining float64
	rate      float64 // current fluid rate, bytes/s
	fixed     bool    // rate settled in the current reshare
	done      func(*Transfer)
	links     []*Link
}

// Duration returns the wall-clock time the transfer took (valid once done).
func (tr *Transfer) Duration() des.Time { return tr.EndedAt - tr.StartedAt }

// Fabric executes transfers over a topology under max-min fair sharing.
type Fabric struct {
	K *des.Kernel
	T *Topology
	// OnStart and OnComplete observe transfer lifecycle: OnStart fires when
	// a transfer is accepted (before any data moves), OnComplete when the
	// last byte lands, before the caller's done hook. OnAbort observes
	// transfers killed by a partition (see AbortSite), after
	// Aborted/EndedAt are set. Observers append to these lists; each list
	// is called in append order.
	OnStart    []func(*Transfer)
	OnComplete []func(*Transfer)
	OnAbort    []func(*Transfer)
	// active holds the flows past connection setup in ascending ID order,
	// so completions and abort victims come out in that order by
	// construction; finished is advance's reused completion buffer.
	active   []*Transfer
	finished []*Transfer
	nextID   int64
	// linkScale maps a link to its current capacity factor during a fault
	// window: (0,1) degraded, 0 partitioned. Absent means full capacity.
	// Lazily allocated so fault-free fabrics carry no extra state.
	linkScale map[*Link]float64
	// recompute event bookkeeping: at most one pending completion event;
	// when rates change the event is re-derived.
	wake   des.Timer
	onWake des.Handler
	// Statistics.
	completed   uint64
	aborted     uint64
	bytesMoved  float64
	lastAdvance des.Time // last instant flow progress was integrated
}

// NewFabric returns a fabric over topology t driven by kernel k.
func NewFabric(k *des.Kernel, t *Topology) *Fabric {
	f := &Fabric{K: k, T: t}
	f.onWake = func(*des.Kernel) {
		f.wake = des.Timer{}
		f.advance()
		f.reshare()
	}
	return f
}

// notify calls each lifecycle observer in hooks with tr, in order.
func notify(hooks []func(*Transfer), tr *Transfer) {
	for _, fn := range hooks {
		fn(tr)
	}
}

// Active returns the number of in-flight transfers.
func (f *Fabric) Active() int { return len(f.active) }

// Completed returns the number of finished transfers.
func (f *Fabric) Completed() uint64 { return f.completed }

// Aborted returns the number of transfers killed by partitions.
func (f *Fabric) Aborted() uint64 { return f.aborted }

// BytesMoved returns total bytes delivered across all finished and
// in-flight transfers.
func (f *Fabric) BytesMoved() float64 { return f.bytesMoved }

// Start begins a transfer; done (may be nil) is invoked at completion.
// Intra-site transfers complete after a fixed local-copy time derived from
// an assumed 2 GB/s filesystem-to-filesystem path.
func (f *Fabric) Start(src, dst string, bytes int64, streams int, done func(*Transfer)) (*Transfer, error) {
	return f.StartOwned(src, dst, bytes, streams, Ownership{}, done)
}

// Ownership attributes a transfer to the work it serves.
type Ownership struct {
	User    string
	Project string
	JobID   int64
}

// StartOwned is Start with ownership attribution applied before the
// OnStart hook fires, so lifecycle observers (span recorders, telemetry)
// see the user/project/job binding from the first instant instead of a
// post-hoc assignment racing the hook.
func (f *Fabric) StartOwned(src, dst string, bytes int64, streams int, own Ownership, done func(*Transfer)) (*Transfer, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("network: non-positive transfer size %d", bytes)
	}
	if streams < 1 {
		streams = 1
	}
	f.nextID++
	tr := &Transfer{
		ID: f.nextID, Src: src, Dst: dst, Bytes: bytes, Streams: streams,
		StartedAt: f.K.Now(), remaining: float64(bytes), done: done,
		User: own.User, Project: own.Project, JobID: own.JobID,
	}
	if src == dst {
		notify(f.OnStart, tr)
		const localBps = 2e9
		dur := des.Time(float64(bytes) / localBps)
		f.K.ScheduleNamed(dur, "xfer-local", func(*des.Kernel) {
			tr.EndedAt = f.K.Now()
			f.completed++
			f.bytesMoved += float64(bytes)
			notify(f.OnComplete, tr)
			if tr.done != nil {
				tr.done(tr)
			}
		})
		return tr, nil
	}
	out, ok := f.T.egress[src]
	if !ok {
		return nil, fmt.Errorf("network: unknown source site %s", src)
	}
	in, ok := f.T.ingress[dst]
	if !ok {
		return nil, fmt.Errorf("network: unknown destination site %s", dst)
	}
	tr.links = []*Link{out, in}
	if f.T.backbone != nil {
		tr.links = append(tr.links, f.T.backbone)
	}
	notify(f.OnStart, tr)
	// Startup latency: control-channel setup plus striping negotiation,
	// a few RTTs. After it elapses the flow joins the fluid model.
	setup := des.Time(3 * f.T.RTT(src, dst))
	f.K.ScheduleNamed(setup, "xfer-start", func(*des.Kernel) {
		f.advance()
		// Setup time depends on RTT, so a later ID can join first.
		i := sort.Search(len(f.active), func(i int) bool { return f.active[i].ID > tr.ID })
		f.active = slices.Insert(f.active, i, tr)
		f.reshare()
	})
	return tr, nil
}

// streamCap returns the per-flow throughput ceiling implied by TCP over a
// long fat pipe: striped flows get a higher ceiling. The constants model a
// well-tuned host pair achieving ~0.5 Gb/s per stream on a 40 ms path.
func (f *Fabric) streamCap(tr *Transfer) float64 {
	rtt := f.T.RTT(tr.Src, tr.Dst)
	if rtt <= 0 {
		return math.Inf(1)
	}
	const windowBytes = 4 << 20 // 4 MiB effective window per stream
	return float64(tr.Streams) * windowBytes / rtt
}

// reshare recomputes all flow rates (max-min fair progressive filling) and
// re-arms the next-completion event.
func (f *Fabric) reshare() {
	for _, tr := range f.active {
		tr.rate, tr.fixed = 0, false
		for _, l := range tr.links {
			l.rem, l.flows = l.Bps*f.scaleOf(l), 0
		}
	}
	for _, tr := range f.active {
		for _, l := range tr.links {
			l.flows++
		}
	}
	// Progressive filling: repeatedly find the bottleneck link (smallest
	// fair share over its unfixed flows, lower link ID on ties), fix its
	// flows at that share, repeat. Flows may also be fixed at their
	// per-stream TCP ceiling. Flows are fixed in ID order, so each link's
	// remaining capacity is reduced in that order.
	for {
		var bottleneck *Link
		share := math.Inf(1)
		for _, tr := range f.active {
			if tr.fixed {
				continue
			}
			for _, l := range tr.links {
				s := l.rem / float64(l.flows)
				if s < share || (s == share && (bottleneck == nil || l.ID < bottleneck.ID)) {
					share, bottleneck = s, l
				}
			}
		}
		if bottleneck == nil {
			break
		}
		// Any unfixed flow whose TCP ceiling is below the share is capped
		// there instead; handle those first (they free capacity).
		capped := false
		for _, tr := range f.active {
			if tr.fixed {
				continue
			}
			if c := f.streamCap(tr); c < share {
				tr.fix(c)
				capped = true
			}
		}
		if capped {
			continue // shares changed; recompute
		}
		for _, tr := range f.active {
			if !tr.fixed && slices.Contains(tr.links, bottleneck) {
				tr.fix(share)
			}
		}
	}
	f.rearm()
}

// fix settles tr at rate and takes the rate off every link it crosses.
func (tr *Transfer) fix(rate float64) {
	tr.rate, tr.fixed = rate, true
	for _, l := range tr.links {
		l.rem -= rate
		l.flows--
	}
}

// advance progresses all active flows to the current instant.
func (f *Fabric) advance() {
	now := f.K.Now()
	dt := float64(now - f.lastAdvance)
	f.lastAdvance = now
	if dt <= 0 {
		return
	}
	// Integrate progress first, then fire completions in transfer-ID order:
	// two flows finishing in the same advance must invoke their callbacks
	// (which can submit jobs and consume random draws) in a deterministic
	// order.
	for _, tr := range f.active {
		tr.remaining -= tr.rate * dt
		f.bytesMoved += tr.rate * dt
	}
	// Sub-byte residues are float rounding, not data: complete them.
	f.finished = f.take(f.finished[:0], func(tr *Transfer) bool { return tr.remaining < 0.5 })
	for _, tr := range f.finished {
		tr.EndedAt = now
		f.completed++
		notify(f.OnComplete, tr)
		if tr.done != nil {
			tr.done(tr)
		}
	}
	clear(f.finished)
}

// take moves the active flows that match onto out, in ID order, and keeps
// the rest in place.
func (f *Fabric) take(out []*Transfer, match func(*Transfer) bool) []*Transfer {
	kept := f.active[:0]
	for _, tr := range f.active {
		if match(tr) {
			out = append(out, tr)
		} else {
			kept = append(kept, tr)
		}
	}
	clear(f.active[len(kept):])
	f.active = kept
	return out
}

// ---- Fault windows (injection interface) ----

// scaleOf returns a link's current capacity factor.
func (f *Fabric) scaleOf(l *Link) float64 {
	if f.linkScale == nil {
		return 1
	}
	if s, ok := f.linkScale[l]; ok {
		return s
	}
	return 1
}

// SetSiteDegraded scales a site's access links (both directions) by factor:
// 1 restores full capacity, (0,1) degrades, 0 partitions the site (flows
// stall at zero rate until restored). In-flight progress is integrated
// before the change so rates switch exactly at the current instant.
func (f *Fabric) SetSiteDegraded(site string, factor float64) error {
	out, ok := f.T.egress[site]
	if !ok {
		return fmt.Errorf("network: unknown site %s", site)
	}
	in := f.T.ingress[site]
	f.advance()
	if factor >= 1 {
		if f.linkScale != nil {
			delete(f.linkScale, out)
			delete(f.linkScale, in)
		}
	} else {
		if factor < 0 {
			factor = 0
		}
		if f.linkScale == nil {
			f.linkScale = make(map[*Link]float64)
		}
		f.linkScale[out] = factor
		f.linkScale[in] = factor
	}
	f.reshare()
	return nil
}

// AbortSite kills every in-flight inter-site transfer touching site,
// returning the victims in ID order. Victims get Aborted/EndedAt set and
// are reported through OnAbort; their done hooks do NOT fire — the caller
// owns the decision to Restart. Transfers still in connection setup are
// not yet active and simply stall once they join a partitioned link.
func (f *Fabric) AbortSite(site string) []*Transfer {
	f.advance()
	victims := f.take(nil, func(tr *Transfer) bool { return tr.Src == site || tr.Dst == site })
	now := f.K.Now()
	for _, tr := range victims {
		tr.Aborted = true
		tr.EndedAt = now
		f.aborted++
		notify(f.OnAbort, tr)
	}
	if len(victims) > 0 {
		f.reshare()
	}
	return victims
}

// Restart re-submits an aborted transfer from byte zero with the same
// endpoints, size, striping, and ownership, carrying the retry count
// forward. The original's done hook transfers to the new attempt.
func (f *Fabric) Restart(tr *Transfer) (*Transfer, error) {
	nt, err := f.StartOwned(tr.Src, tr.Dst, tr.Bytes, tr.Streams,
		Ownership{User: tr.User, Project: tr.Project, JobID: tr.JobID}, tr.done)
	if err != nil {
		return nil, err
	}
	nt.Retries = tr.Retries + 1
	return nt, nil
}

// rearm schedules the wake event at the earliest projected completion.
func (f *Fabric) rearm() {
	if f.wake.Pending() {
		f.K.Cancel(f.wake)
	}
	f.wake = des.Timer{}
	soonest := des.Forever
	for _, tr := range f.active {
		if tr.rate <= 0 {
			continue
		}
		eta := des.Time(tr.remaining / tr.rate)
		if eta < 0 {
			eta = 0
		}
		if f.K.Now()+eta < soonest {
			soonest = f.K.Now() + eta
		}
	}
	if soonest == des.Forever {
		return
	}
	// Guarantee forward progress: a wake at (or rounding to) the current
	// instant would integrate zero elapsed time and re-arm forever.
	now := f.K.Now()
	minStep := des.Time(1e-6)
	if eps := now * 1e-9; eps > minStep {
		minStep = eps
	}
	if soonest <= now+minStep {
		soonest = now + minStep
	}
	f.wake = f.K.AtNamed(soonest, "xfer-complete", f.onWake)
}
