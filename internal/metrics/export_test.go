package metrics

// What the external tests (package metrics_test, which may import the engine
// to record runs) reach inside the package for: the line structs that are
// the encoding/json oracle, and the appenders held to it.
type (
	LineSample = lineSample
	LineEvent  = lineEvent
)

var (
	AppendSample = appendSample
	AppendEvent  = appendEvent
)
