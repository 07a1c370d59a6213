package bench

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The open loop paces arrivals with it, often a
// few hundred microseconds apart: time.Sleep rounds waits under a
// millisecond up to one when every P is idle (the runtime's netpoll timeout
// has millisecond resolution), which would make the load generator, not
// the service, set the latency. nanosleep wakes within tens of
// microseconds; waits over 2ms sleep the bulk on the runtime timer first.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		switch {
		case wait <= 0:
			return
		case wait > 2*time.Millisecond:
			time.Sleep(wait - time.Millisecond)
		default:
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
		}
	}
}
