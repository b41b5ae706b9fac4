package sched

// LiveRecords returns how many of s's pooled run records are out of the
// pool, for the lifecycle test in package sched_test.
func LiveRecords(s *Scheduler) int { return s.liveRecords() }
