package server

import "sync"

// Priority classes, index-ordered: class 0 drains strictly before class 1.
const (
	priorityHigh   = 0
	priorityNormal = 1
	priorityLevels = 2
)

// sched is the coordinator's leg scheduler: two strict-priority FIFO queues
// of jobs whose legs want executors. A job appears in its queue at most once
// regardless of how many pending legs it has; an executor that claims a leg
// leaves the job at the head while more legs are pending, so the legs of one
// job fan out across every idle executor, in leg order, while jobs of equal
// priority still start in submission order.
//
// Lock order: sched.mu is taken before job.mu (claimLeg runs under both).
// Nothing holding job.mu may call back into the scheduler.
type sched struct {
	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	queues [priorityLevels][]*job
}

func newSched() *sched {
	q := &sched{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// enqueue adds the job to its priority queue if it is not already there.
// Called at admission, on lease expiry, and on retry backoff completion.
func (q *sched) enqueue(j *job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j.inQueue {
		return
	}
	j.inQueue = true
	q.queues[j.priority] = append(q.queues[j.priority], j)
	q.cond.Signal()
}

// next blocks until a leg is claimable, claims it, and returns it. ok=false
// only once the scheduler is closed AND every queued leg has been claimed —
// executors therefore drain the backlog before exiting, which is what lets
// a graceful Drain finish queued jobs.
func (q *sched) next() (j *job, leg int, epoch uint64, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for pri := 0; pri < priorityLevels; pri++ {
			for len(q.queues[pri]) > 0 {
				head := q.queues[pri][0]
				leg, epoch, more, claimed := head.claimLeg()
				if !more {
					// Nothing further pending (all claimed, or the job went
					// terminal): drop it from the queue. It re-enters via
					// enqueue if a lease expires or a retry re-arms a leg.
					q.queues[pri] = q.queues[pri][1:]
					head.inQueue = false
				}
				if claimed {
					return head, leg, epoch, true
				}
			}
		}
		if q.closed {
			return nil, 0, 0, false
		}
		q.cond.Wait()
	}
}

// close wakes every blocked executor; they drain the remaining queue and
// exit. Idempotent.
func (q *sched) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}
