package trace

// SampleEvents exposes the codec tests' multi-chunk event log to the
// external golden and fuzz tests.
var SampleEvents = testEvents
