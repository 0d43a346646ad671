package pipeline

// SetFreshFrontEnds switches every session and warmer to building its
// own unpooled front-end (on) or back to the shared pool (off): the
// reference path the pooling equivalence test compares against.
func SetFreshFrontEnds(on bool) { freshFrontEnds.Store(on) }
