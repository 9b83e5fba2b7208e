package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Queue errors.
var (
	// ErrQueueClosed is returned for jobs submitted after the queue stopped
	// accepting work.
	ErrQueueClosed = errors.New("service: queue closed")
	// ErrDrained is returned for jobs that were still pending when the queue
	// drained. Their pipeline steps were never journaled, so a restarted
	// daemon re-runs them.
	ErrDrained = errors.New("service: job dropped during drain")
)

const (
	defaultMaxAttempts = 3
	defaultBackoff     = 25 * time.Millisecond
)

// Job is one unit of pipeline work. Fn must be idempotent across attempts
// (pipeline jobs are: blob writes are content-addressed and journal appends
// happen once, after the work succeeds).
type Job struct {
	// Label identifies the job in errors and debugging.
	Label string
	// Fn does the work; it must honour ctx promptly.
	Fn func(ctx context.Context) error
	// MaxAttempts bounds retries (default 3). Context errors are never
	// retried — cancellation is a decision, not a transient fault.
	MaxAttempts int
	// Backoff is the initial retry delay (default 25ms), doubled per attempt.
	Backoff time.Duration
	// Done, when set, is called with the job's final error after its last
	// attempt. A job dropped before it ran never calls it.
	Done func(err error)
}

// Handle tracks one submitted job.
type Handle struct {
	job      Job
	done     chan struct{}
	err      error
	attempts int
}

// Wait blocks until the job finished (returning its final error) or ctx is
// done (returning ctx.Err(); the job keeps running).
func (h *Handle) Wait(ctx context.Context) error {
	select {
	case <-h.done:
		return h.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Err returns the job's final error; only valid after Wait succeeded.
func (h *Handle) Err() error { return h.err }

// Attempts returns how many times the job ran; only valid after Wait.
func (h *Handle) Attempts() int { return h.attempts }

// QueueStats is a point-in-time snapshot of queue counters.
type QueueStats struct {
	Submitted uint64
	Completed uint64
	Failed    uint64
	Retries   uint64
	Dropped   uint64
	Workers   int
}

// Queue is a bounded-worker job queue with per-job retry and exponential
// backoff. Jobs run under the context passed to NewQueue; Drain stops intake,
// drops pending jobs (they are journal-resumable) and waits for in-flight
// jobs, escalating to cancellation if its context expires first.
type Queue struct {
	ctx     context.Context
	cancel  context.CancelFunc
	workers int

	mu      sync.Mutex
	cond    *sync.Cond
	pending []*Handle
	closed  bool
	wg      sync.WaitGroup

	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	retries   atomic.Uint64
	dropped   atomic.Uint64
}

// NewQueue starts a queue with the given number of workers (minimum 1).
// Canceling ctx cancels in-flight and future jobs but does not stop the
// workers; call Drain to shut down.
func NewQueue(ctx context.Context, workers int) *Queue {
	if workers < 1 {
		workers = 1
	}
	qctx, cancel := context.WithCancel(ctx)
	q := &Queue{ctx: qctx, cancel: cancel, workers: workers}
	q.cond = sync.NewCond(&q.mu)
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Submit enqueues a job. After Drain began, the returned handle is already
// done with ErrQueueClosed.
func (q *Queue) Submit(j Job) *Handle {
	h := &Handle{job: j, done: make(chan struct{})}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.dropped.Add(1)
		h.err = ErrQueueClosed
		close(h.done)
		return h
	}
	q.submitted.Add(1)
	q.pending = append(q.pending, h)
	q.cond.Signal()
	q.mu.Unlock()
	return h
}

// Drain shuts the queue down: intake stops, pending (unstarted) jobs complete
// immediately with ErrDrained, and Drain waits for in-flight jobs to finish.
// If ctx expires first the job context is canceled — jobs honour it promptly —
// and Drain still waits for the workers, returning ctx.Err() to report the
// forced stop. Drain is idempotent.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	q.closed = true
	pending := q.pending
	q.pending = nil
	q.cond.Broadcast()
	q.mu.Unlock()
	for _, h := range pending {
		q.dropped.Add(1)
		h.err = ErrDrained
		close(h.done)
	}

	workersDone := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(workersDone)
	}()
	var forced error
	select {
	case <-workersDone:
	case <-ctx.Done():
		forced = ctx.Err()
		q.cancel()
		<-workersDone
	}
	q.cancel() // release the context either way
	return forced
}

// Stats returns a snapshot of the queue's counters.
func (q *Queue) Stats() QueueStats {
	return QueueStats{
		Submitted: q.submitted.Load(),
		Completed: q.completed.Load(),
		Failed:    q.failed.Load(),
		Retries:   q.retries.Load(),
		Dropped:   q.dropped.Load(),
		Workers:   q.workers,
	}
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for len(q.pending) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.pending) == 0 {
			q.mu.Unlock()
			return
		}
		h := q.pending[0]
		q.pending = q.pending[1:]
		q.mu.Unlock()
		q.run(h)
	}
}

// run executes one job with bounded retry. A job that fails with its own
// error is retried after an exponentially growing delay; context errors end
// the job immediately (the step is resumable, not broken).
func (q *Queue) run(h *Handle) {
	maxAttempts := h.job.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = defaultMaxAttempts
	}
	backoff := h.job.Backoff
	if backoff <= 0 {
		backoff = defaultBackoff
	}
	for attempt := 1; ; attempt++ {
		h.attempts = attempt
		if err := q.ctx.Err(); err != nil {
			h.err = err
			break
		}
		err := h.job.Fn(q.ctx)
		h.err = err
		if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			break
		}
		if attempt >= maxAttempts {
			break
		}
		q.retries.Add(1)
		select {
		case <-time.After(backoff):
		case <-q.ctx.Done():
		}
		backoff *= 2
	}
	if h.err != nil {
		q.failed.Add(1)
	} else {
		q.completed.Add(1)
	}
	if h.job.Done != nil {
		h.job.Done(h.err)
	}
	close(h.done)
}
