//go:build race

package experiment

// raceBuild reports a -race test binary: its checks allocate.
const raceBuild = true
