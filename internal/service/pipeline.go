package service

import (
	"context"
	"fmt"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/reduce"
	"spirvfuzz/internal/target"
)

// runCampaign drives one campaign through the three pipeline stages, each
// delegating to the shared step functions in steps.go. Every stage consults
// the journal-derived state first and re-runs only what is missing; all
// recomputation is deterministic, so an interrupted-and-resumed campaign
// produces buckets bitwise-identical to an uninterrupted one.
func (s *Service) runCampaign(ctx context.Context, c *campaign) error {
	refs := corpus.References()
	donors := corpus.Donors()
	targets, err := ResolveTargets(c.spec.Targets)
	if err != nil {
		return fmt.Errorf("service: campaign %s: %w", c.id, err)
	}
	env := Env{Eng: s.eng, Reng: s.reng, Blobs: s.st}

	// Snapshot the memo counters so the campaign can report its delta —
	// approximate when campaigns overlap, but a faithful warm/cold signal
	// for the common one-at-a-time case. recordMemo runs under c.mu: on
	// success in the same critical section that marks the campaign done, so
	// a status that reads done also reads the final counters; on failure
	// from the deferred call.
	memoStart := s.eng.Stats()
	recordMemo := func() {
		memoEnd := s.eng.Stats()
		c.memoHits = memoEnd.MemoHits - memoStart.MemoHits
		c.memoMisses = memoEnd.MemoMisses - memoStart.MemoMisses
	}
	defer func() {
		c.mu.Lock()
		if c.state != StateDone {
			recordMemo()
		}
		c.mu.Unlock()
	}()

	// Stage 1: generate and classify. Each test is one job; journaled tests
	// are skipped (the skip counters are what GET /metrics reports as
	// checkpoint reuse).
	c.setState(StateFuzzing)
	var handles []*Handle
	for i := 0; i < c.spec.Tests; i++ {
		c.mu.Lock()
		_, done := c.testsDone[i]
		c.mu.Unlock()
		if done {
			c.mu.Lock()
			c.skippedTests++
			c.mu.Unlock()
			s.skipped.Add(1)
			continue
		}
		i := i
		handles = append(handles, s.queue.Submit(Job{
			Label: fmt.Sprintf("%s/test%d", c.id, i),
			Fn: func(ctx context.Context) error {
				bugs, err := FuzzStep(ctx, env, c.spec, targets, refs, donors, i)
				if err != nil {
					return err
				}
				if _, err := s.st.Journal().Append(c.id, recTestDone, testDoneRec{Index: i, Bugs: bugs}); err != nil {
					return err
				}
				c.mu.Lock()
				c.testsDone[i] = bugs
				c.mu.Unlock()
				return nil
			},
		}))
	}
	if err := waitAll(ctx, handles); err != nil {
		return err
	}

	// Stage 2: reduce the selected bugs. Selection is deterministic (test
	// order, then the spec's target order, capped per (target, signature)),
	// so the interrupted and fresh runs pick identical cases.
	c.mu.Lock()
	cases := SelectReductions(c.id, c.spec, c.testsDone)
	c.reduceTotal = len(cases)
	c.mu.Unlock()
	c.setState(StateReducing)
	if c.spec.CrossBucketPrecheck {
		if err := s.reducePrechecked(ctx, c, env, refs, cases); err != nil {
			return err
		}
	} else {
		handles = handles[:0]
		for _, rc := range cases {
			c.mu.Lock()
			_, done := c.reduced[rc.Name]
			c.mu.Unlock()
			if done {
				c.mu.Lock()
				c.skippedReductions++
				c.mu.Unlock()
				s.skipped.Add(1)
				continue
			}
			rc := rc
			handles = append(handles, s.queue.Submit(Job{
				Label: "reduce/" + rc.Name,
				Fn: func(ctx context.Context) error {
					rec, err := ReduceStep(ctx, env, c.id, c.spec, refs, rc)
					if err != nil {
						return err
					}
					if _, err := s.st.Journal().Append(c.id, recReduced, rec); err != nil {
						return err
					}
					c.mu.Lock()
					c.reduced[rc.Name] = rec
					c.mu.Unlock()
					return nil
				},
			}))
		}
		if err := waitAll(ctx, handles); err != nil {
			return err
		}
	}

	// Stage 3: deduplicate into buckets, checkpoint, and journal completion.
	// Cheap and fully derived, so it is not a queue job: a crash here simply
	// re-runs it on resume.
	c.setState(StateBucketing)
	c.mu.Lock()
	buckets, err := BuildBuckets(c.id, c.spec, cases, c.reduced)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	set := BucketSet{Campaign: c.id, Buckets: buckets}
	if err := s.st.SaveCheckpoint(bucketCheckpoint(c.id), set); err != nil {
		return err
	}
	if _, err := s.st.Journal().Append(c.id, recCampaignDone, campaignDoneRec{Buckets: len(buckets)}); err != nil {
		return err
	}
	if err := s.st.Journal().Sync(); err != nil {
		return err
	}
	c.mu.Lock()
	c.buckets = buckets
	recordMemo()
	c.state = StateDone
	c.mu.Unlock()
	return nil
}

// reducePrechecked is the reduce stage with the cross-bucket pre-check:
// cases run serially in selection order, and before a case is reduced, every
// earlier case's minimized variant is tried against this case's
// interestingness test — oldest first, first hit wins. A hit means the
// earlier report already exhibits this case's (target, signature), so the
// reduction is skipped and the case journaled as covered, reusing the
// coverer's report and type set (bucketing then merges the two). Each
// verdict depends on the minimized variants that exist before it, which is
// why this path is serial and not cluster-shardable; within the serial
// order every probe is deterministic, so an interrupted-and-resumed campaign
// journals identical records.
func (s *Service) reducePrechecked(ctx context.Context, c *campaign, env Env, refs []corpus.Item, cases []ReduceCase) error {
	// Minimized variants of completed, non-covered reductions, in selection
	// order. Covered cases are excluded: their variant is their coverer's,
	// which is already (earlier) in the list.
	type coverer struct {
		name string
		fc   *fuzz.Context
	}
	var coverers []coverer
	addCoverer := func(rec ReducedRec) error {
		if rec.CoveredBy != "" {
			return nil
		}
		fc, _, err := MinimizedVariant(env, refs, rec)
		if err != nil {
			return err
		}
		coverers = append(coverers, coverer{name: rec.Case, fc: fc})
		return nil
	}
	for _, rc := range cases {
		if err := ctx.Err(); err != nil {
			return err
		}
		c.mu.Lock()
		rec, done := c.reduced[rc.Name]
		c.mu.Unlock()
		if done {
			c.mu.Lock()
			c.skippedReductions++
			c.mu.Unlock()
			s.skipped.Add(1)
			if err := addCoverer(rec); err != nil {
				return err
			}
			continue
		}
		tg := target.ByName(rc.Bug.Target)
		if tg == nil {
			return fmt.Errorf("service: unknown target %q", rc.Bug.Target)
		}
		item, err := findRef(refs, rc.Bug.Reference)
		if err != nil {
			return err
		}
		interesting := reduce.ForOutcomeOn(s.eng, tg, item.Mod, item.Inputs, rc.Bug.Signature)
		probes, covered := 0, ""
		for _, cov := range coverers {
			probes++
			if interesting(cov.fc.Mod, cov.fc.Inputs) {
				covered = cov.name
				break
			}
		}
		if covered != "" {
			c.mu.Lock()
			src := c.reduced[covered]
			c.mu.Unlock()
			rec = ReducedRec{
				Case:       rc.Name,
				Target:     rc.Bug.Target,
				Signature:  rc.Bug.Signature,
				ReportHash: src.ReportHash,
				Types:      src.Types,
				KeptLen:    src.KeptLen,
				Delta:      src.Delta,
				Queries:    probes,
				CoveredBy:  covered,
			}
		} else {
			rec, err = ReduceStep(ctx, env, c.id, c.spec, refs, rc)
			if err != nil {
				return err
			}
		}
		if _, err := s.st.Journal().Append(c.id, recReduced, rec); err != nil {
			return err
		}
		c.mu.Lock()
		c.reduced[rc.Name] = rec
		c.mu.Unlock()
		if err := addCoverer(rec); err != nil {
			return err
		}
	}
	return nil
}

// runBisect drives one bisection job: list the finished campaign's reduced
// cases in their canonical selection order, bisect each as one queue job
// (journaled verdicts are skipped), then assemble and checkpoint the result
// set. Every verdict is deterministic, so an interrupted-and-resumed job —
// or a cluster-sharded one — produces a set bitwise-identical to an
// uninterrupted single-node run.
func (s *Service) runBisect(ctx context.Context, j *bisectJob) error {
	s.mu.Lock()
	c := s.campaigns[j.campaign]
	s.mu.Unlock()
	if c == nil {
		return fmt.Errorf("service: bisect job %s: no campaign %q", j.id, j.campaign)
	}
	// Snapshot the campaign's journal-derived state. The campaign was done
	// when the job was created, so every test and reduction record is present
	// even if the campaign itself is re-running its bucket stage after a
	// restart.
	c.mu.Lock()
	cases := SelectReductions(c.id, c.spec, c.testsDone)
	reduced := make(map[string]ReducedRec, len(c.reduced))
	for k, v := range c.reduced {
		reduced[k] = v
	}
	c.mu.Unlock()
	recs := make([]ReducedRec, len(cases))
	for i, rc := range cases {
		rec, ok := reduced[rc.Name]
		if !ok {
			return fmt.Errorf("service: bisect job %s: campaign %s case %s not reduced", j.id, j.campaign, rc.Name)
		}
		recs[i] = rec
	}
	j.mu.Lock()
	j.total = len(cases)
	j.mu.Unlock()
	j.setState(StateBisecting)

	refs := corpus.References()
	env := Env{Eng: s.eng, Reng: s.reng, Blobs: s.st}
	var handles []*Handle
	for _, rec := range recs {
		j.mu.Lock()
		_, done := j.outcomes[rec.Case]
		j.mu.Unlock()
		if done {
			j.mu.Lock()
			j.skipped++
			j.mu.Unlock()
			s.skipped.Add(1)
			continue
		}
		rec := rec
		handles = append(handles, s.queue.Submit(Job{
			Label: "bisect/" + rec.Case,
			Fn: func(ctx context.Context) error {
				out, err := BisectStep(ctx, env, s.beng, refs, rec)
				if err != nil {
					return err
				}
				if _, err := s.st.Journal().Append(j.id, recCaseBisected, out); err != nil {
					return err
				}
				j.mu.Lock()
				j.outcomes[out.Case] = out
				j.mu.Unlock()
				return nil
			},
		}))
	}
	if err := waitAll(ctx, handles); err != nil {
		return err
	}

	// Assemble the result. The transform-signal bucket count is rebuilt from
	// the same records rather than read off the campaign, so the job does not
	// depend on the campaign's in-memory state.
	buckets, err := BuildBuckets(c.id, c.spec, cases, reduced)
	if err != nil {
		return err
	}
	j.mu.Lock()
	outcomes := make(map[string]BisectOutcome, len(j.outcomes))
	for k, v := range j.outcomes {
		outcomes[k] = v
	}
	j.mu.Unlock()
	set, err := BuildBisectSet(j.id, j.campaign, cases, reduced, outcomes, len(buckets))
	if err != nil {
		return err
	}
	if err := s.st.SaveCheckpoint(bisectCheckpoint(j.id), set); err != nil {
		return err
	}
	if _, err := s.st.Journal().Append(j.id, recBisectDone, bisectDoneRec{BisectBuckets: set.BisectBuckets}); err != nil {
		return err
	}
	if err := s.st.Journal().Sync(); err != nil {
		return err
	}
	j.mu.Lock()
	j.set = &set
	j.state = StateDone
	j.mu.Unlock()
	return nil
}

// waitAll waits for every handle and returns the first error in submission
// order (deterministic even when several jobs fail).
func waitAll(ctx context.Context, handles []*Handle) error {
	for _, h := range handles {
		if err := h.Wait(ctx); err != nil {
			return err
		}
	}
	return nil
}
