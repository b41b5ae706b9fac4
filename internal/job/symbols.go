package job

// Sym is one of a job's string fields, interned: an index into the run's
// Symbols table. Sym 0 is the empty string in every table, so a zero Job
// has all-empty strings.
type Sym uint32

// Symbols is a run's string table. Every job of a run and every record
// made from one index the same table: the generators, schedulers,
// gateways, broker and workflow engine that write a job's strings, the
// run's ledgers, its Central, each flushed Packet and the stream processor
// fed by its taps. That keeps Job and accounting.JobRecord free of
// pointers (the garbage collector never scans them) and makes every copy
// move 4 bytes per string field instead of 16.
//
// A table is append-only: a string's Sym never changes once interned.
// It has one writer; Intern and InternBytes must not race with each other
// or with Str. Once interning has stopped, any number of goroutines may
// call Str concurrently.
//
// Sym numbers follow interning order, which differs between a live run
// (generation order), an Import and a daemon decode of the same records.
// No output may depend on them: a sort that fixes an output order
// compares the strings, never the Syms, and a map keyed by Sym is only
// ever counted or looked up.
type Symbols struct {
	strs []string
	ids  map[string]Sym
}

// The fixed vocabularies every table is seeded with, at these Syms: the
// QOS names, the State names, the submit_via values and the Modality
// names. A name in two vocabularies ("urgent", "gateway", "interactive")
// has one Sym. QOS.Sym and State.Sym map through them without a lookup,
// generators label ground truth with them, and the classifiers compare
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
	SymNormal:          QOSNormal.String(),
	SymUrgent:          QOSUrgent.String(),
	SymInteractive:     QOSInteractive.String(),
	SymPending:         StatePending.String(),
	SymQueued:          StateQueued.String(),
	SymRunning:         StateRunning.String(),
	SymCompleted:       StateCompleted.String(),
	SymKilled:          StateKilled.String(),
	SymPreempted:       StatePreempted.String(),
	SymFailed:          StateFailed.String(),
	SymLogin:           "login",
	SymGram:            "gram",
	SymGateway:         "gateway",
	SymMetasched:       "metasched",
	SymBatchCapability: string(ModBatchCapability),
	SymBatchCapacity:   string(ModBatchCapacity),
	SymEnsemble:        string(ModEnsemble),
	SymWorkflow:        string(ModWorkflow),
	SymDataCentric:     string(ModDataCentric),
	SymMetascheduled:   string(ModMetascheduled),
	SymUnknown:         string(ModUnknown),
}

// Pre-seeded Syms of the enumerations, indexed by value.
var (
	qosSyms = [...]Sym{
		QOSNormal: SymNormal, QOSUrgent: SymUrgent, QOSInteractive: SymInteractive,
	}
	stateSyms = [...]Sym{
		StatePending: SymPending, StateQueued: SymQueued, StateRunning: SymRunning,
		StateCompleted: SymCompleted, StateKilled: SymKilled,
		StatePreempted: SymPreempted, StateFailed: SymFailed,
	}
)

// Sym returns the QOS's pre-seeded Sym, or SymUnknown for a value outside
// the enumeration (Validate rejects such a job).
func (q QOS) Sym() Sym {
	if q >= 0 && int(q) < len(qosSyms) {
		return qosSyms[q]
	}
	return SymUnknown
}

// Sym returns the state's pre-seeded Sym, or SymUnknown for a value
// outside the enumeration.
func (s State) Sym() Sym {
	if s >= 0 && int(s) < len(stateSyms) {
		return stateSyms[s]
	}
	return SymUnknown
}

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
