package service

import (
	"sync"
	"time"
)

// Retry-After bounds: a pushed-back client never waits less than a
// second (sub-second retries just hammer a full queue) nor more than
// thirty (even a stalled queue deserves a probe occasionally).
const (
	retryAfterMin = 1
	retryAfterMax = 30
	// drainWindow is how far back the estimator looks when computing the
	// queue's drain rate.
	drainWindow = 30 * time.Second
	// drainSamples bounds the ring of recorded drain instants.
	drainSamples = 64
)

// DrainEstimator measures how fast the job queue is draining so 429
// responses can carry a Retry-After proportional to the actual backlog
// clearing time rather than a fixed constant. Every worker pickup
// records a drain instant; RetryAfter divides the current depth by the
// observed rate. The fleet coordinator reuses the same estimator for
// its own front-door pushback, so backoff stays proportional at every
// level of the fabric (DESIGN.md §15).
type DrainEstimator struct {
	mu    sync.Mutex
	times [drainSamples]time.Time // ring of drain instants
	next  int                     // ring cursor
	n     int                     // filled entries
}

// Record notes one queue drain (a worker picked up a job) at now.
func (d *DrainEstimator) Record(now time.Time) {
	d.mu.Lock()
	d.times[d.next] = now
	d.next = (d.next + 1) % drainSamples
	if d.n < drainSamples {
		d.n++
	}
	d.mu.Unlock()
}

// RetryAfter estimates, in whole seconds, how long a client should wait
// before resubmitting when the queue is depth deep: the time the
// observed drain rate needs to clear the backlog, clamped to
// [retryAfterMin, retryAfterMax]. With no drains observed inside the
// window the estimator has no signal and answers the minimum.
func (d *DrainEstimator) RetryAfter(depth int, now time.Time) int {
	d.mu.Lock()
	cutoff := now.Add(-drainWindow)
	var k int
	oldest := now
	for i := 0; i < d.n; i++ {
		t := d.times[i]
		if t.Before(cutoff) {
			continue
		}
		k++
		if t.Before(oldest) {
			oldest = t
		}
	}
	d.mu.Unlock()
	if k == 0 || depth <= 0 {
		return retryAfterMin
	}
	elapsed := now.Sub(oldest)
	if elapsed <= 0 {
		// All drains landed "now": the queue is clearing faster than the
		// clock resolves, so the minimum backoff is already conservative.
		return retryAfterMin
	}
	// k drains over elapsed ⇒ clearing depth jobs takes depth*elapsed/k.
	sec := int((time.Duration(depth) * elapsed / time.Duration(k)).Round(time.Second) / time.Second)
	if sec < retryAfterMin {
		return retryAfterMin
	}
	if sec > retryAfterMax {
		return retryAfterMax
	}
	return sec
}
