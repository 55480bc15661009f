package tcp

// A reference queue in a test is a second declaration all the same.
func insertOOO(q [][]byte, p []byte) [][]byte { return append(q, p) } // want `one-window: insertOOO declared outside tcp\.Reassembler`
