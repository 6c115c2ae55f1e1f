package vtime

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
