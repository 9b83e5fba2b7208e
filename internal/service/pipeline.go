package service

import (
	"context"
	"errors"
	"fmt"

	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/reduce"
	"spirvfuzz/internal/target"
)

// submit queues the units the Machine handed out. Each unit is one job that
// runs its step and records the result; the record that completes a phase
// returns the next phase's units, which the same job queues in turn. A
// pre-checked campaign's reduce units run as one serial job instead.
func (s *Service) submit(units []Unit) {
	prechecked := ""
	for _, u := range units {
		if u.Phase == PhaseReduce && u.Spec.CrossBucketPrecheck {
			// A job's units are contiguous, so one serial job per campaign.
			if u.Job != prechecked {
				prechecked = u.Job
				s.queue.Submit(s.job(u.Job+"/precheck", u.Job, func(ctx context.Context) ([]Unit, error) {
					return nil, s.reducePrechecked(ctx, u.Job)
				}))
			}
			continue
		}
		s.queue.Submit(s.job(fmt.Sprintf("%s/%s%d", u.Job, u.Phase, u.Index), u.Job, func(ctx context.Context) ([]Unit, error) {
			return s.step(ctx, u)
		}))
	}
}

// job wraps a step as a queue job: it queues the units the step's record
// returns, treats a duplicate record as done, and fails the owning job when
// the step fails for good. Interruptions fail nothing: the journal resumes.
func (s *Service) job(label, owner string, step func(ctx context.Context) ([]Unit, error)) Job {
	return Job{
		Label: label,
		Fn: func(ctx context.Context) error {
			next, err := step(ctx)
			if err != nil && !errors.Is(err, ErrDuplicate) {
				return err
			}
			s.submit(next)
			return nil
		},
		Done: func(err error) {
			if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				s.Fail(owner, err.Error())
			}
		},
	}
}

// step runs one unit through its shared step function and records the
// result.
func (s *Service) step(ctx context.Context, u Unit) ([]Unit, error) {
	env := Env{Eng: s.eng, Reng: s.reng, Blobs: s.st}
	refs, donors := s.modules()
	switch u.Phase {
	case PhaseFuzz:
		targets, err := ResolveTargets(u.Spec.Targets)
		if err != nil {
			return nil, err
		}
		bugs, err := FuzzStep(ctx, env, u.Spec, targets, refs, donors, u.Index)
		if err != nil {
			return nil, err
		}
		return s.RecordTests(u.Job, []TestDone{{Index: u.Index, Bugs: bugs}})
	case PhaseReduce:
		rec, err := ReduceStep(ctx, env, u.Job, u.Spec, refs, u.Case)
		if err != nil {
			return nil, err
		}
		return s.RecordReduced(u.Job, []ReducedRec{rec})
	case PhaseBisect:
		out, err := BisectStep(ctx, env, s.beng, refs, u.Rec)
		if err != nil {
			return nil, err
		}
		return s.RecordBisected(u.Job, []BisectOutcome{out})
	}
	return nil, fmt.Errorf("service: unit with unknown phase %q", u.Phase)
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
func (s *Service) reducePrechecked(ctx context.Context, id string) error {
	c := s.campaign(id)
	c.mu.Lock()
	cases := c.cases
	c.mu.Unlock()
	env := Env{Eng: s.eng, Reng: s.reng, Blobs: s.st}
	refs, _ := s.modules()
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
			if err := addCoverer(rec); err != nil {
				return err
			}
			continue
		}
		tg := target.ByName(rc.Bug.Target)
		if tg == nil {
			return fmt.Errorf("service: unknown target %q", rc.Bug.Target)
		}
		item, err := FindRef(refs, rc.Bug.Reference)
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
		if _, err := s.RecordReduced(c.id, []ReducedRec{rec}); err != nil && !errors.Is(err, ErrDuplicate) {
			return err
		}
		if err := addCoverer(rec); err != nil {
			return err
		}
	}
	return nil
}
