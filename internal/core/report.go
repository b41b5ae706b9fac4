package core

import (
	"cmp"
	"slices"
	"sort"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/metrics"
)

// UsageRow is one row of the usage-by-modality report.
type UsageRow struct {
	Modality job.Modality
	Jobs     int
	NUs      float64
	// AccountUsers counts distinct charging accounts — what naive
	// accounting sees (a gateway's whole community is one account).
	AccountUsers int
	// EndUsers counts distinct real people, folding in gateway end-user
	// attribute records where available. This is the number the modality
	// program exists to recover.
	EndUsers int
}

// Report is the measured usage breakdown.
type Report struct {
	Rows     []UsageRow
	TotalNUs float64
	// BySource tallies how many jobs were decided by each evidence tier.
	BySource map[Source]int
}

// Row returns the row for a modality (zero row if absent).
func (r *Report) Row(m job.Modality) UsageRow {
	for _, row := range r.Rows {
		if row.Modality == m {
			return row
		}
	}
	return UsageRow{Modality: m}
}

// BuildReport aggregates classification results into the usage report.
func BuildReport(c *accounting.Central, results []Result) *Report {
	attributed, endUserN := endUsers(c)
	syms := c.Syms().Len()
	// accounts holds each modality's charging accounts by Sym; people its
	// end users by number, then the accounts of its unattributed jobs at
	// endUserN + Sym.
	type agg struct {
		jobs             int
		nus              float64
		accounts, people bitset
	}
	byMod := make(map[job.Modality]*agg)
	bySource := make(map[Source]int)
	total := 0.0
	for i, r := range c.Jobs() {
		rule := results[i].Rule
		a := byMod[rule.Modality()]
		if a == nil {
			a = &agg{accounts: newBitset(syms), people: newBitset(endUserN + syms)}
			byMod[rule.Modality()] = a
		}
		a.jobs++
		a.nus += r.NUs
		a.accounts.add(int(r.User))
		if p, ok := attributed.at(i); ok {
			a.people.add(int(p))
		} else {
			a.people.add(endUserN + int(r.User))
		}
		bySource[rule.Source()]++
		total += r.NUs
	}
	rep := &Report{TotalNUs: total, BySource: bySource}
	// Canonical taxonomy order first, then anything else (e.g. unknown).
	emit := func(m job.Modality) {
		if a, ok := byMod[m]; ok {
			rep.Rows = append(rep.Rows, UsageRow{
				Modality: m, Jobs: a.jobs, NUs: a.nus,
				AccountUsers: a.accounts.count(), EndUsers: a.people.count(),
			})
			delete(byMod, m)
		}
	}
	for _, info := range Taxonomy() {
		emit(info.ID)
	}
	rest := make([]job.Modality, 0, len(byMod))
	for m := range byMod {
		rest = append(rest, m)
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	for _, m := range rest {
		emit(m)
	}
	return rep
}

// attribution is a held job that a gateway attribute record names the end
// user of: the job's arrival position in the database and the end user's
// number.
type attribution struct{ pos, person int32 }

// attributions is endUsers' result, sorted by position: a cursor that
// at reads alongside the held jobs.
type attributions []attribution

// at returns the end user of the job at position pos, if a record names
// one. Calls must come in increasing position order, and must not skip an
// attributed job.
func (a *attributions) at(pos int) (int32, bool) {
	if len(*a) == 0 || int((*a)[0].pos) != pos {
		return 0, false
	}
	p := (*a)[0].person
	*a = (*a)[1:]
	return p, true
}

// endUsers numbers the people that gateway attribute records name: each
// distinct (gateway, end user) pair, in the order of its first record. It
// returns the held jobs a record attributes, each with its end user (the
// last record wins for a job with two), and the number of distinct pairs.
func endUsers(c *accounting.Central) (attributions, int) {
	attrs := c.GatewayAttrs()
	keys := make(map[uint64]int32)
	byPos := make(attributions, 0, attrs.Len())
	for _, run := range attrs {
		for i := range run {
			a := &run[i]
			k := a.EndUser()
			p, ok := keys[k]
			if !ok {
				p = int32(len(keys))
				keys[k] = p
			}
			if pos, ok := c.Pos(a.JobID); ok {
				byPos = append(byPos, attribution{int32(pos), p})
			}
		}
	}
	// The stable sort keeps a job's records in arrival order, so the last
	// of each run of one position is the record that wins.
	slices.SortStableFunc(byPos, func(a, b attribution) int { return cmp.Compare(a.pos, b.pos) })
	last := byPos[:0]
	for i, a := range byPos {
		if i+1 == len(byPos) || byPos[i+1].pos != a.pos {
			last = append(last, a)
		}
	}
	return last, len(keys)
}

// MechanismRow breaks usage down by submission mechanism — the measurement
// available *before* the modality framework: how jobs arrived, not why.
type MechanismRow struct {
	Mechanism    string
	Jobs         int
	NUs          float64
	AccountUsers int
}

// MechanismReport aggregates by the SubmitVia attribute ("login", "gram",
// "gateway", "metasched"; empty becomes "unknown").
func MechanismReport(c *accounting.Central) []MechanismRow {
	type agg struct {
		jobs     int
		nus      float64
		accounts map[job.Sym]bool
	}
	byMech := make(map[string]*agg)
	syms := c.Syms()
	for _, r := range c.Jobs() {
		mech := syms.Str(r.SubmitVia)
		if mech == "" {
			mech = "unknown"
		}
		a := byMech[mech]
		if a == nil {
			a = &agg{accounts: make(map[job.Sym]bool)}
			byMech[mech] = a
		}
		a.jobs++
		a.nus += r.NUs
		a.accounts[r.User] = true
	}
	mechs := make([]string, 0, len(byMech))
	for m := range byMech {
		mechs = append(mechs, m)
	}
	sort.Strings(mechs)
	out := make([]MechanismRow, 0, len(mechs))
	for _, m := range mechs {
		a := byMech[m]
		out = append(out, MechanismRow{Mechanism: m, Jobs: a.jobs, NUs: a.nus,
			AccountUsers: len(a.accounts)})
	}
	return out
}

// ServiceRow summarizes the service quality one modality received.
type ServiceRow struct {
	Modality    job.Modality
	Jobs        int
	MeanWaitS   float64
	MedianWaitS float64
	P95WaitS    float64
	KilledFrac  float64 // fraction terminated at the walltime limit
}

// ServiceReport computes per-modality queueing outcomes from classified
// records: the "are the modalities we want to encourage being served
// well?" question operators would ask next, once measurement exists.
func ServiceReport(c *accounting.Central, results []Result) []ServiceRow {
	waits := make(map[job.Modality]*metrics.Sample)
	counts := make(map[job.Modality]int)
	killed := make(map[job.Modality]int)
	for i, r := range c.Jobs() {
		m := results[i].Rule.Modality()
		if waits[m] == nil {
			waits[m] = &metrics.Sample{}
		}
		waits[m].Add(r.WaitSeconds())
		counts[m]++
		if r.ExitStatus == job.SymKilled {
			killed[m]++
		}
	}
	var out []ServiceRow
	for _, info := range Taxonomy() {
		s, ok := waits[info.ID]
		if !ok {
			continue
		}
		out = append(out, ServiceRow{
			Modality:    info.ID,
			Jobs:        counts[info.ID],
			MeanWaitS:   s.Mean(),
			MedianWaitS: s.Median(),
			P95WaitS:    s.Percentile(95),
			KilledFrac:  float64(killed[info.ID]) / float64(counts[info.ID]),
		})
	}
	return out
}

// FieldRow is one row of the usage-by-science-field report.
type FieldRow struct {
	Field    string
	Jobs     int
	NUs      float64
	Projects int
}

// FieldReport aggregates usage by the allocation's field of science —
// the "who is the CI serving" breakdown program officers asked for.
// Records without a field land under "unspecified".
func FieldReport(c *accounting.Central) []FieldRow {
	type agg struct {
		jobs     int
		nus      float64
		projects map[job.Sym]bool
	}
	byField := make(map[string]*agg)
	syms := c.Syms()
	for _, r := range c.Jobs() {
		f := syms.Str(r.ScienceField)
		if f == "" {
			f = "unspecified"
		}
		a := byField[f]
		if a == nil {
			a = &agg{projects: make(map[job.Sym]bool)}
			byField[f] = a
		}
		a.jobs++
		a.nus += r.NUs
		a.projects[r.Project] = true
	}
	fields := make([]string, 0, len(byField))
	for f := range byField {
		fields = append(fields, f)
	}
	// Sort by NUs descending (usage reports lead with the big consumers),
	// ties by name for determinism.
	sort.Slice(fields, func(i, j int) bool {
		a, b := byField[fields[i]], byField[fields[j]]
		if a.nus != b.nus {
			return a.nus > b.nus
		}
		return fields[i] < fields[j]
	})
	out := make([]FieldRow, 0, len(fields))
	for _, f := range fields {
		a := byField[f]
		out = append(out, FieldRow{Field: f, Jobs: a.jobs, NUs: a.nus,
			Projects: len(a.projects)})
	}
	return out
}

// Validate compares classifications against the generator ground truth
// carried in the records, returning a confusion matrix over the taxonomy.
// This is the experiment the simulation substrate makes possible.
func Validate(c *accounting.Central, results []Result) *metrics.Confusion {
	conf := metrics.NewConfusion(ModalityLabels())
	syms := c.Syms()
	for i, r := range c.Jobs() {
		truth := syms.Str(r.TruthModality)
		if truth == "" {
			truth = string(job.ModUnknown)
		}
		conf.Observe(truth, string(results[i].Rule.Modality()))
	}
	return conf
}

// GatewayVisibility quantifies the headline gateway measurement: how many
// real people are hidden behind community accounts, versus how many the
// attribute records recover.
type GatewayVisibility struct {
	CommunityAccounts int // distinct gateway community accounts seen
	RecoveredEndUsers int // distinct end users visible via attributes
	GatewayJobs       int
	AttributedJobs    int
}

// Overlap describes how the user population spans modalities: the count
// of users per number-of-modalities-used, and the pairwise overlap matrix.
// Users pursuing several modalities are exactly the multi-objective users
// the modality program wanted to understand.
type Overlap struct {
	// ByModalityCount[k] = users active in exactly k modalities (k ≥ 1).
	ByModalityCount map[int]int
	// Pairs[a][b] = users active in both modality a and b (a ≠ b); the
	// diagonal holds each modality's total user count.
	Pairs map[job.Modality]map[job.Modality]int
}

// MeasureOverlap computes modality overlap per effective user: gateway
// end users where attributes exist, charging accounts otherwise.
func MeasureOverlap(c *accounting.Central, results []Result) Overlap {
	attributed, _ := endUsers(c)
	perUser := make(map[int64]map[job.Modality]bool)
	for i, r := range c.Jobs() {
		// A person is an end user, keyed -1 - number, or else a charging
		// account, keyed by its Sym (≥ 0, so never an end user's key).
		u := int64(r.User)
		if p, ok := attributed.at(i); ok {
			u = -1 - int64(p)
		}
		if perUser[u] == nil {
			perUser[u] = make(map[job.Modality]bool)
		}
		perUser[u][results[i].Rule.Modality()] = true
	}
	ov := Overlap{
		ByModalityCount: make(map[int]int),
		Pairs:           make(map[job.Modality]map[job.Modality]int),
	}
	add := func(a, b job.Modality) {
		if ov.Pairs[a] == nil {
			ov.Pairs[a] = make(map[job.Modality]int)
		}
		ov.Pairs[a][b]++
	}
	for _, mods := range perUser {
		ov.ByModalityCount[len(mods)]++
		list := make([]job.Modality, 0, len(mods))
		for m := range mods {
			list = append(list, m)
		}
		for _, a := range list {
			for _, b := range list {
				add(a, b)
			}
		}
	}
	return ov
}

// MeasureGatewayVisibility computes gateway end-user visibility from the
// central database.
func MeasureGatewayVisibility(c *accounting.Central) GatewayVisibility {
	var v GatewayVisibility
	accounts := newBitset(c.Syms().Len())
	attributed, people := endUsers(c)
	for i, r := range c.Jobs() {
		_, ok := attributed.at(i)
		if r.GatewayID == job.SymNone && r.SubmitVia != job.SymGateway {
			continue
		}
		v.GatewayJobs++
		accounts.add(int(r.User))
		if ok {
			v.AttributedJobs++
		}
	}
	v.CommunityAccounts = accounts.count()
	v.RecoveredEndUsers = people
	return v
}
