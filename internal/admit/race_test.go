//go:build race

package admit

// A -race build makes sync.Pool drop items at random, so allocation counts
// (fmt's printer pool among them) stop being deterministic.
func init() { raceEnabled = true }
