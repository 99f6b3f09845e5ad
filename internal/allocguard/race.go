//go:build race

package allocguard

// Race reports whether the binary was built with the race detector.
const Race = true
