package job

import (
	"fmt"
	"math"

	"github.com/tgsim/tgmod/internal/des"
)

// Pool is a run's LIFO free list of jobs. A generator takes each job it
// creates from the pool, and the job goes back exactly once, at its one
// terminal state, after every reader of the job is done with it. A run
// keeps only as many jobs as are alive at once, not one per submission.
//
// Put overwrites the job with released values, so a holder that reads a
// job past its release sees values no live job has (an ID of -1, negative
// cores, NaN times, Syms outside every table) and fails loudly instead of
// reading the next job's fields. A second Put of the same job panics.
//
// The zero Pool is empty and ready to use. A Pool is not safe for
// concurrent use; each run owns its own.
type Pool struct {
	free []*Job
	made int
}

// releasedID is the ID of a job in the pool; generators number jobs from 1.
const releasedID ID = -1

// symReleased is a Sym past the end of every table: Symbols.Str panics on
// it.
const symReleased = ^Sym(0)

// released is what Put overwrites a job with.
var released = func() Job {
	nan := des.Time(math.NaN())
	return Job{
		ID: releasedID, Name: symReleased, User: symReleased, Project: symReleased,
		Site: symReleased, Machine: symReleased, Queue: symReleased,
		Cores: -1, ReqWalltime: nan, QOS: -1, InputBytes: -1,
		RunTime: nan, SubmitTime: nan, StartTime: nan, EndTime: nan,
		State: -1, Preemptions: -1, WastedCoreSeconds: math.NaN(),
		Attr: Attributes{
			SubmitVia: symReleased, GatewayID: symReleased, GatewayUser: symReleased,
			WorkflowID: symReleased, WorkflowEngine: symReleased, EnsembleID: symReleased,
			BrokerJobID: symReleased, CoAllocID: symReleased, ScienceField: symReleased,
		},
		Truth: Truth{Modality: symReleased, CampaignID: symReleased},
	}
}()

// Get returns a zero job: the most recently released one, or a new one
// when the pool is empty.
func (p *Pool) Get() *Job {
	n := len(p.free)
	if n == 0 {
		p.made++
		return new(Job)
	}
	j := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	*j = Job{}
	return j
}

// Put releases j, which its caller must not read again: it overwrites j
// with the released values and keeps it for a later Get. Releasing a job
// twice panics.
func (p *Pool) Put(j *Job) {
	if j.ID == releasedID {
		panic(fmt.Sprintf("job: job released twice (%d jobs made, %d free)", p.made, len(p.free)))
	}
	*j = released
	p.free = append(p.free, j)
}

// Made returns how many jobs Get has allocated rather than reused.
func (p *Pool) Made() int { return p.made }

// Drop forgets every released job, so that a finished run holds none.
func (p *Pool) Drop() { p.free = nil }
