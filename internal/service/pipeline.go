package service

import (
	"context"
	"errors"
	"fmt"
)

// submit queues the units the Machine handed out. Each unit is one job that
// runs its step and records the result; the record that completes a phase
// returns the next phase's units, which the same job queues in turn.
func (s *Service) submit(units []Unit) {
	for _, u := range units {
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
