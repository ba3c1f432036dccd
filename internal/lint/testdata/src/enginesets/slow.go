package enginesets

import "mem"

// slowTxn is a map-based copy of the access sets kept beside the fast
// path. The file name grants no exemption: a second map-based
// implementation in an engine package is flagged like any other.
type slowTxn struct {
	readSet  map[mem.Line]struct{} // want "mem.Line-keyed map in engine package"
	writeLog map[mem.Addr]uint64
}

func (e *Engine) beginSlow() *slowTxn {
	return &slowTxn{
		readSet:  make(map[mem.Line]struct{}), // want "mem.Line-keyed map in engine package"
		writeLog: make(map[mem.Addr]uint64),
	}
}
