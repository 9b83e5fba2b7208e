package runner

import (
	"context"
	"errors"
	"testing"
	"time"

	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/target"
	"spirvfuzz/internal/testmod"
)

// A miss canceled while it queues for a worker withdraws its slot: a
// caller waiting on that slot retries the lookup, executes itself and gets
// the real image, not the failed fill's zero value.
func TestRunCtxWithdrawRetry(t *testing.T) {
	e := New(1)
	tg := target.ByName("Mesa")
	m := testmod.Diamond()
	in := interp.Inputs{}
	want, crash := tg.Run(m, in)
	if crash != nil || want == nil {
		t.Fatalf("reference run: img=%v crash=%v", want, crash)
	}

	e.sem <- struct{}{} // occupy the only worker

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		_, _, err := e.RunCtx(ctxA, tg, m, in)
		errA <- err
	}()
	waitFor(t, "A to publish its slot", func() bool { return e.results.entries() == 1 })

	type outcome struct {
		img   *interp.Image
		crash *target.Crash
		err   error
	}
	doneB := make(chan outcome, 1)
	go func() {
		img, crash, err := e.RunCtx(context.Background(), tg, m, in)
		doneB <- outcome{img, crash, err}
	}()
	waitFor(t, "B to wait on A's slot", func() bool { return e.Stats().Hits == 1 })

	cancelA()
	select {
	case err := <-errA:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("A returned %v, want its ctx error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("A did not return after its ctx was canceled")
	}

	<-e.sem // free the worker
	var b outcome
	select {
	case b = <-doneB:
	case <-time.After(10 * time.Second):
		t.Fatal("B never finished: the failed slot was left behind")
	}
	if b.err != nil || b.crash != nil || b.img == nil || !b.img.Equal(want) {
		t.Fatalf("B got img=%v crash=%v err=%v, want tg.Run's image", b.img, b.crash, b.err)
	}
	if st := e.Stats(); st.Misses != 1 || st.Hits != 1 || st.Entries != 3 {
		t.Fatalf("after retry: %+v, want 1 miss, 1 hit, 3 entries", st)
	}
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
