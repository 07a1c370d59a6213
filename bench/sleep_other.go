//go:build !linux

package bench

import "time"

// sleepUntil blocks until t. Outside Linux it falls back to time.Sleep,
// whose resolution can add up to a millisecond of dispatch lateness (see
// loadgen.late_p99_ms).
func sleepUntil(t time.Time) {
	if wait := time.Until(t); wait > 0 {
		time.Sleep(wait)
	}
}
