package service

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestQueueRunsJobs(t *testing.T) {
	q := NewQueue(context.Background(), 4)
	var ran atomic.Int64
	var handles []*Handle
	for i := 0; i < 50; i++ {
		handles = append(handles, q.Submit(Job{
			Label: fmt.Sprintf("job%d", i),
			Fn: func(ctx context.Context) error {
				ran.Add(1)
				return nil
			},
		}))
	}
	for _, h := range handles {
		if err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if n := ran.Load(); n != 50 {
		t.Fatalf("ran %d of 50 jobs", n)
	}
	st := q.Stats()
	if st.Submitted != 50 || st.Completed != 50 || st.Failed != 0 || st.Retries != 0 {
		t.Fatalf("stats %+v", st)
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestQueueRetriesTransientFailures(t *testing.T) {
	q := NewQueue(context.Background(), 1)
	defer q.Drain(context.Background())
	var calls atomic.Int64
	h := q.Submit(Job{
		Label: "flaky",
		Fn: func(ctx context.Context) error {
			if calls.Add(1) < 3 {
				return errors.New("transient")
			}
			return nil
		},
	})
	if err := h.Wait(context.Background()); err != nil {
		t.Fatalf("flaky job did not recover: %v", err)
	}
	if h.Attempts() != 3 {
		t.Fatalf("attempts = %d, want 3", h.Attempts())
	}
	if st := q.Stats(); st.Retries != 2 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestQueueBoundedRetry(t *testing.T) {
	q := NewQueue(context.Background(), 1)
	defer q.Drain(context.Background())
	boom := errors.New("boom")
	var calls atomic.Int64
	var done []error // appended by the worker before the handle completes
	h := q.Submit(Job{
		Label: "doomed",
		Fn: func(ctx context.Context) error {
			calls.Add(1)
			return boom
		},
		Done: func(err error) { done = append(done, err) },
	})
	if err := h.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := calls.Load(); n != maxAttempts {
		t.Fatalf("job ran %d times, want %d", n, maxAttempts)
	}
	if len(done) != 1 || !errors.Is(done[0], boom) {
		t.Fatalf("Done saw %v, want boom once after the last attempt", done)
	}
	if st := q.Stats(); st.Failed != 1 || st.Retries != uint64(maxAttempts-1) {
		t.Fatalf("stats %+v", st)
	}
}

func TestQueueDoesNotRetryCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	q := NewQueue(ctx, 1)
	defer q.Drain(context.Background())
	var calls atomic.Int64
	h := q.Submit(Job{
		Label: "canceled",
		Fn: func(jctx context.Context) error {
			calls.Add(1)
			cancel()
			<-jctx.Done()
			return jctx.Err()
		},
	})
	if err := h.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("canceled job retried: ran %d times", n)
	}
}

// TestQueueDrainDropsPending: with one worker wedged, queued jobs complete
// with ErrDrained instead of running, and submissions after the drain fail
// with ErrQueueClosed.
func TestQueueDrainDropsPending(t *testing.T) {
	q := NewQueue(context.Background(), 1)
	release := make(chan struct{})
	started := make(chan struct{})
	inflight := q.Submit(Job{Label: "inflight", Fn: func(ctx context.Context) error {
		close(started)
		<-release
		return nil
	}})
	<-started
	var ran atomic.Int64
	pending := q.Submit(Job{Label: "pending", Fn: func(ctx context.Context) error {
		ran.Add(1)
		return nil
	}})

	drained := make(chan error, 1)
	go func() { drained <- q.Drain(context.Background()) }()
	if err := pending.Wait(context.Background()); !errors.Is(err, ErrDrained) {
		t.Fatalf("pending job err = %v, want ErrDrained", err)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := inflight.Wait(context.Background()); err != nil {
		t.Fatalf("in-flight job err = %v, want nil (drain waits for it)", err)
	}
	if ran.Load() != 0 {
		t.Fatal("dropped job ran anyway")
	}
	late := q.Submit(Job{Label: "late", Fn: func(ctx context.Context) error { return nil }})
	if err := late.Wait(context.Background()); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("post-drain submit err = %v, want ErrQueueClosed", err)
	}
	if st := q.Stats(); st.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (pending + late)", st.Dropped)
	}
}

// TestQueueDrainForced: a drain whose context expires cancels in-flight jobs
// rather than waiting forever, and reports the forced stop.
func TestQueueDrainForced(t *testing.T) {
	q := NewQueue(context.Background(), 1)
	started := make(chan struct{})
	h := q.Submit(Job{Label: "stuck", Fn: func(ctx context.Context) error {
		close(started)
		<-ctx.Done() // only cancellation ends this job
		return ctx.Err()
	}})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain err = %v, want DeadlineExceeded", err)
	}
	if err := h.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("stuck job err = %v, want context.Canceled", err)
	}
}
