package service

import (
	"context"
	"fmt"
	"sync"

	"spirvfuzz/internal/bisect"
	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/memostore"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/store"
)

// BugRef is one (test, target) bug finding as journaled in a TestDone.
// The sequence is referenced by blob hash, so the record is small and the
// artifact deduplicates across re-runs.
type BugRef struct {
	Target    string `json:"target"`
	Signature string `json:"signature"`
	Reference string `json:"reference"`
	Seed      int64  `json:"seed"`
	SeqHash   string `json:"seq_hash"`
	// VariantHash is store.HashBytes of the variant's encoding: a content
	// fingerprint, not a blob address. The sequence is the test, so no
	// variant blob is stored; replaying SeqHash's sequence on the reference
	// must rebuild a module with this hash.
	VariantHash string `json:"variant_hash"`
}

// Options configures a Service.
type Options struct {
	// Workers sizes the runner engine's pool and the job queue; <= 0 selects
	// GOMAXPROCS.
	Workers int
	// MemoDir, when non-empty, attaches a persistent execution memo store
	// rooted there: campaign and bisect executions consult it
	// before running and spill completed outcomes back, so a restarted
	// daemon — or a second campaign over the same corpus — warm-starts.
	// Results are bitwise-identical at any memo temperature.
	MemoDir string
	// MemoMaxBytes bounds the memo store's segment bytes; <= 0 selects
	// memostore.DefaultMaxBytes. Ignored without MemoDir.
	MemoMaxBytes int64
}

// Service runs the campaign pipeline in process: the shared Machine holds
// the journaled state, and every unit it hands out runs as a job on a queue
// over the shared execution engine. It is safe for concurrent use.
type Service struct {
	*Machine
	st    *store.Store
	eng   *runner.Engine
	reng  *replay.Engine
	beng  *bisect.Engine
	memo  *memostore.Store // nil without Options.MemoDir
	queue *Queue
	// modules builds the reference and donor modules every step reads, once,
	// on the first step: a restart that runs nothing never pays for them.
	modules func() ([]corpus.Item, []*spirv.Module)

	ctx    context.Context
	cancel context.CancelFunc
}

// New builds a service over an open store, replays the journal to recover
// campaign and bisection-job state, and resumes every unfinished job. The
// caller keeps ownership of the store until Close, which closes it.
func New(st *store.Store, opts Options) (*Service, error) {
	eng := runner.New(opts.Workers)
	// The memo store attaches before recovery: resumed jobs start executing
	// immediately and must see the warm tier.
	var memo *memostore.Store
	if opts.MemoDir != "" {
		var err error
		memo, err = memostore.Open(opts.MemoDir, opts.MemoMaxBytes)
		if err != nil {
			return nil, fmt.Errorf("service: memo store: %w", err)
		}
		eng.SetMemoStore(memo)
	}
	m, units, err := NewMachine(st, eng.MemoCounts)
	if err != nil {
		if memo != nil {
			memo.Close()
		}
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		Machine: m,
		st:      st,
		eng:     eng,
		reng:    new(replay.Engine),
		beng:    bisect.New(eng),
		memo:    memo,
		queue:   NewQueue(ctx, eng.Workers()),
		modules: sync.OnceValues(func() ([]corpus.Item, []*spirv.Module) {
			return corpus.References(), corpus.Donors()
		}),
		ctx:    ctx,
		cancel: cancel,
	}
	// Journaled steps are skipped; the rest is recomputed deterministically,
	// so resumed jobs end bitwise-identical to uninterrupted ones.
	s.submit(units)
	return s, nil
}

// CreateCampaign validates and journals a new campaign and queues its
// tests. The returned status is the initial snapshot.
func (s *Service) CreateCampaign(spec CampaignSpec) (CampaignStatus, error) {
	if err := s.ctx.Err(); err != nil {
		return CampaignStatus{}, fmt.Errorf("service: shutting down: %w", err)
	}
	status, units, err := s.StartCampaign(spec)
	if err != nil {
		return CampaignStatus{}, err
	}
	s.submit(units)
	return status, nil
}

// CreateBisect validates and journals a new bisection job over a finished
// campaign and queues its cases. The returned status is the initial
// snapshot.
func (s *Service) CreateBisect(spec BisectSpec) (BisectStatus, error) {
	if err := s.ctx.Err(); err != nil {
		return BisectStatus{}, fmt.Errorf("service: shutting down: %w", err)
	}
	status, units, err := s.StartBisect(spec)
	if err != nil {
		return BisectStatus{}, err
	}
	s.submit(units)
	return status, nil
}

// Metrics returns the daemon-wide counter snapshot.
func (s *Service) Metrics() Metrics {
	qs := s.queue.Stats()
	m := Metrics{
		Tally:         s.Tally(),
		JobsSubmitted: qs.Submitted,
		JobsCompleted: qs.Completed,
		JobsFailed:    qs.Failed,
		JobsRetried:   qs.Retries,
		JobsDropped:   qs.Dropped,
		Runner:        s.eng.Stats(),
		Replay:        s.reng.Stats(),
		Store:         s.st.Stats(),
		Bisect:        s.beng.Stats(),
	}
	if s.memo != nil {
		ms := s.memo.Stats()
		m.Memo = &ms
	}
	return m
}

// Close drains the service: job intake stops, pending jobs are dropped
// (their steps are journal-resumable), in-flight jobs finish — or are
// canceled when ctx expires — and the store is synced and closed. Returns
// ctx.Err() if the drain was forced.
func (s *Service) Close(ctx context.Context) error {
	forced := s.queue.Drain(ctx)
	s.cancel()
	if s.memo != nil {
		// After the jobs stop: Close flushes the spill queue and fsyncs
		// the segments the next daemon scans.
		if err := s.memo.Close(); err != nil && forced == nil {
			forced = err
		}
	}
	s.st.Journal().Sync()
	if err := s.st.Close(); err != nil && forced == nil {
		forced = err
	}
	return forced
}

// MemoStore returns the service's persistent memo store, or nil when the
// daemon runs without one.
func (s *Service) MemoStore() *memostore.Store { return s.memo }
