package pipeline

// SetPooling switches every session and warmer between the shared
// front-end and back-end pools (on, the default) and building its own
// unpooled structures (off): the reference path the pooling
// equivalence tests compare against.
func SetPooling(on bool) { noPools.Store(!on) }
