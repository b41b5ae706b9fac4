package accounting

import "github.com/tgsim/tgmod/internal/job"

// Sym is a job record's string field, interned: an index into the run's
// Symbols table. Sym 0 is the empty string in every table, so a zero
// JobRecord has all-empty strings.
type Sym uint32

// Symbols is a run's string table. Every job record of a run indexes one
// table: the run's ledgers, its Central, each flushed Packet and the
// stream processor fed by its taps share it, which keeps JobRecord free
// of pointers (the garbage collector never scans a slice of records) and
// makes every record copy move 4 bytes per string field instead of 16.
//
// A table is append-only: a string's Sym never changes once interned.
// It has one writer; Intern and InternBytes must not race with each other
// or with Str. Once interning has stopped, any number of goroutines may
// call Str concurrently.
//
// Sym numbers follow interning order, which differs between a live run,
// an Import and a daemon decode of the same records. No output may depend
// on them: a sort that fixes an output order compares the strings, never
// the Syms, and a map keyed by Sym is only ever counted or looked up.
type Symbols struct {
	strs []string
	ids  map[string]Sym
}

// The fixed vocabularies every table is seeded with, at these Syms:
// the job.QOS names, the job.State names, the submit_via values and the
// job.Modality names. A name in two vocabularies ("urgent", "gateway",
// "interactive") has one Sym. RecordOf maps QOS, exit state and truth
// modality through them without a lookup, and the classifiers compare
// against them.
const (
	SymNone Sym = iota // ""

	SymNormal
	SymUrgent
	SymInteractive

	SymPending
	SymQueued
	SymRunning
	SymCompleted
	SymKilled
	SymPreempted
	SymFailed

	SymLogin
	SymGram
	SymGateway
	SymMetasched

	SymBatchCapability
	SymBatchCapacity
	SymEnsemble
	SymWorkflow
	SymDataCentric
	SymMetascheduled
	SymUnknown

	numSeeded
)

// seeded holds the text of each pre-seeded Sym.
var seeded = [numSeeded]string{
	SymNone:            "",
	SymNormal:          job.QOSNormal.String(),
	SymUrgent:          job.QOSUrgent.String(),
	SymInteractive:     job.QOSInteractive.String(),
	SymPending:         job.StatePending.String(),
	SymQueued:          job.StateQueued.String(),
	SymRunning:         job.StateRunning.String(),
	SymCompleted:       job.StateCompleted.String(),
	SymKilled:          job.StateKilled.String(),
	SymPreempted:       job.StatePreempted.String(),
	SymFailed:          job.StateFailed.String(),
	SymLogin:           "login",
	SymGram:            "gram",
	SymGateway:         "gateway",
	SymMetasched:       "metasched",
	SymBatchCapability: string(job.ModBatchCapability),
	SymBatchCapacity:   string(job.ModBatchCapacity),
	SymEnsemble:        string(job.ModEnsemble),
	SymWorkflow:        string(job.ModWorkflow),
	SymDataCentric:     string(job.ModDataCentric),
	SymMetascheduled:   string(job.ModMetascheduled),
	SymUnknown:         string(job.ModUnknown),
}

// Pre-seeded Syms of the job package's enumerations, indexed by value.
var (
	qosSyms = [...]Sym{
		job.QOSNormal: SymNormal, job.QOSUrgent: SymUrgent, job.QOSInteractive: SymInteractive,
	}
	stateSyms = [...]Sym{
		job.StatePending: SymPending, job.StateQueued: SymQueued, job.StateRunning: SymRunning,
		job.StateCompleted: SymCompleted, job.StateKilled: SymKilled,
		job.StatePreempted: SymPreempted, job.StateFailed: SymFailed,
	}
)

// NewSymbols returns a table holding only the pre-seeded vocabularies,
// with room for 1024 strings before it first grows.
func NewSymbols() *Symbols {
	t := &Symbols{
		strs: make([]string, numSeeded, 1024),
		ids:  make(map[string]Sym, 1024),
	}
	copy(t.strs, seeded[:])
	for i, s := range seeded {
		t.ids[s] = Sym(i)
	}
	return t
}

// Len returns the number of distinct strings in the table, "" included.
func (t *Symbols) Len() int { return len(t.strs) }

// Str returns the string a Sym stands for.
func (t *Symbols) Str(s Sym) string { return t.strs[s] }

// Intern returns s's Sym, adding s to the table if it is new. It does not
// allocate when s is already present.
func (t *Symbols) Intern(s string) Sym {
	if id, ok := t.ids[s]; ok {
		return id
	}
	return t.add(s)
}

// InternBytes is Intern for a decoder's bytes. It does not allocate when
// the string is already present, and copies b only when it is new.
func (t *Symbols) InternBytes(b []byte) Sym {
	if id, ok := t.ids[string(b)]; ok {
		return id
	}
	return t.add(string(b))
}

func (t *Symbols) add(s string) Sym {
	id := Sym(len(t.strs))
	t.strs = append(t.strs, s)
	t.ids[s] = id
	return id
}

// qos and state intern a job's QOS and state, by constant for the
// enumerated values.
func (t *Symbols) qos(q job.QOS) Sym {
	if q >= 0 && int(q) < len(qosSyms) {
		return qosSyms[q]
	}
	return t.Intern(q.String())
}

func (t *Symbols) state(s job.State) Sym {
	if s >= 0 && int(s) < len(stateSyms) {
		return stateSyms[s]
	}
	return t.Intern(s.String())
}

// modality interns a ground-truth modality, by constant for the taxonomy.
func (t *Symbols) modality(m job.Modality) Sym {
	switch m {
	case "":
		return SymNone
	case job.ModBatchCapability:
		return SymBatchCapability
	case job.ModBatchCapacity:
		return SymBatchCapacity
	case job.ModEnsemble:
		return SymEnsemble
	case job.ModWorkflow:
		return SymWorkflow
	case job.ModGateway:
		return SymGateway
	case job.ModUrgent:
		return SymUrgent
	case job.ModInteractive:
		return SymInteractive
	case job.ModDataCentric:
		return SymDataCentric
	case job.ModMetascheduled:
		return SymMetascheduled
	case job.ModUnknown:
		return SymUnknown
	}
	return t.Intern(string(m))
}
