package vtime

import "aiac/internal/runenv"

// Handoffs is the number of scheduler-to-process hand-offs of the run. It
// lives here so that only tests can read the counter — including the
// external test in table1_test.go, which needs the engine and therefore
// cannot be in-package.
func (s *Scheduler) Handoffs() int64 {
	n := int64(0)
	for _, p := range s.procs {
		n += p.handoffs
	}
	return n
}

// recordStop sets cfg.OnStop to record the cause the scheduler reports, and
// returns where it lands (zero: none reported).
func recordStop(cfg *runenv.Config) *runenv.StopCause {
	cause := new(runenv.StopCause)
	cfg.OnStop = func(c runenv.StopCause) { *cause = c }
	return cause
}
