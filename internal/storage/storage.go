// Package storage provides the staging helper that moves job data between
// sites via the network fabric.
package storage

import (
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/network"
)

// Stager moves job inputs and outputs over the network fabric and invokes a
// completion callback, recording per-transfer metadata for accounting.
type Stager struct {
	K      *des.Kernel
	Fabric *network.Fabric
	// OnTransfer, if set, receives every completed staging transfer.
	OnTransfer func(*network.Transfer)
	staged     uint64
}

// NewStager returns a stager over the given fabric.
func NewStager(k *des.Kernel, f *network.Fabric) *Stager {
	return &Stager{K: k, Fabric: f}
}

// Staged returns the number of completed staging transfers.
func (s *Stager) Staged() uint64 { return s.staged }

// Stage moves bytes from src to dst and calls done when finished. Zero-byte
// stages complete immediately (no transfer record).
func (s *Stager) Stage(src, dst string, bytes int64, user, project string, jobID int64, done func()) error {
	if bytes <= 0 {
		if done != nil {
			s.K.ScheduleNamed(0, "stage-empty", func(*des.Kernel) { done() })
		}
		return nil
	}
	// Bulk staging uses 4-way striping, the common GridFTP default.
	// Ownership rides in on the transfer itself so start-of-life observers
	// already see the user/project/job binding.
	own := network.Ownership{User: user, Project: project, JobID: jobID}
	_, err := s.Fabric.StartOwned(src, dst, bytes, 4, own, func(tr *network.Transfer) {
		s.staged++
		if s.OnTransfer != nil {
			s.OnTransfer(tr)
		}
		if done != nil {
			done()
		}
	})
	return err
}
