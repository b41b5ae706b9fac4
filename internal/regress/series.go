// Series derivation: flattening a loaded run into comparable name→value
// pairs. Three sources feed the set, each namespaced by a prefix so a
// shift is attributable at a glance: raw OpenMetrics series keep their
// exposed identity, accounting aggregates get "acct:", and the wait
// decomposition reconstructed from the event stream gets "decomp:".
package regress

import (
	"fmt"

	"github.com/tgsim/tgmod/internal/analysis"
)

// Series flattens the run into its full comparable series set.
func (r *Run) Series() (map[string]float64, error) {
	out := make(map[string]float64, len(r.Metrics))
	for k, v := range r.Metrics {
		out[k] = v
	}
	if r.Central != nil {
		acctSeries(r, out)
	}
	if r.Events != nil {
		if err := decompSeries(r, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// acctSeries derives aggregates from the accounting database.
func acctSeries(r *Run, out map[string]float64) {
	c := r.Central
	out["acct:jobs_total"] = float64(c.Len())
	out["acct:transfers_total"] = float64(c.Transfers().Len())
	out["acct:nus_total"] = c.TotalNUs()
	out["acct:distinct_users"] = float64(c.DistinctUsers())
	type agg struct {
		jobs int
		nus  float64
		wait float64
	}
	byMod := make(map[string]*agg)
	syms := c.Syms()
	for _, rec := range c.Jobs() {
		mod := syms.Str(rec.TruthModality)
		if mod == "" {
			mod = "unknown"
		}
		a := byMod[mod]
		if a == nil {
			a = &agg{}
			byMod[mod] = a
		}
		a.jobs++
		a.nus += rec.NUs
		a.wait += rec.WaitSeconds()
	}
	for mod, a := range byMod {
		out[fmt.Sprintf("acct:jobs{mod=%s}", mod)] = float64(a.jobs)
		out[fmt.Sprintf("acct:nus{mod=%s}", mod)] = a.nus
		out[fmt.Sprintf("acct:wait_s{mod=%s}", mod)] = a.wait
	}
}

// decompSeries reconstructs timelines from the event stream and flattens
// the per-modality wait decomposition, so a diff names exactly which
// latency component of which modality moved.
func decompSeries(r *Run, out map[string]float64) error {
	ts, err := analysis.Reconstruct(r.Events)
	if err != nil {
		return fmt.Errorf("regress: reconstructing %s: %w", r.Dir, err)
	}
	out["decomp:jobs_seen"] = float64(len(ts.Jobs))
	out["decomp:rejected"] = float64(ts.Rejected)
	out["decomp:incomplete"] = float64(ts.Incomplete)
	for _, d := range analysis.Decompose(ts) {
		p := func(component string) string {
			return fmt.Sprintf("decomp:%s{mod=%s}", component, d.Modality)
		}
		out[p("jobs")] = float64(d.Jobs)
		out[p("preempted")] = float64(d.Preempted)
		out[p("wait_s")] = d.WaitSeconds
		out[p("requeue_s")] = d.RequeueWaitSeconds
		out[p("lost_run_s")] = d.LostRunSeconds
		out[p("run_s")] = d.RunSeconds
		out[p("end_to_end_s")] = d.EndToEndSeconds
		out[p("transfer_s")] = d.TransferSeconds
	}
	return nil
}
