package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"spirvfuzz/internal/bisect"
	"spirvfuzz/internal/core"
	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/harness"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/memostore"
	"spirvfuzz/internal/opt"
	"spirvfuzz/internal/reduce"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/store"
	"spirvfuzz/internal/target"
)

// The step driver runs one campaign and its bisect job the way the spirvd
// service does — the same journal records, checkpoints and blob writes — but
// one step at a time and through the layers' public functions, so each call
// can be wrapped in a span. It is the benchmark's serial reference (recorder
// nil) and its traced run (recorder set); the two execute identical code.

// Journal record types and payloads, as the service writes them.
const (
	recCampaignCreated = "campaign_created"
	recTestDone        = "test_done"
	recReduced         = "reduced"
	recCampaignDone    = "campaign_done"
	recBisectCreated   = "bisect_created"
	recCaseBisected    = "case_bisected"
	recBisectDone      = "bisect_done"
)

type testDoneRec struct {
	Index int              `json:"index"`
	Bugs  []service.BugRef `json:"bugs,omitempty"`
}

type campaignDoneRec struct {
	Buckets int `json:"buckets"`
}

type bisectCreatedRec struct {
	Campaign string `json:"campaign"`
}

type bisectDoneRec struct {
	BisectBuckets int `json:"bisect_buckets"`
}

// jobRecords is what a campaign plus its bisect job produced: the reduction
// records in selection order and the two served results.
type jobRecords struct {
	Reduced []service.ReducedRec
	Buckets []service.Bucket
	Bisect  service.BisectSet
}

// driverCounts are the work counts the driver observes at layer boundaries.
type driverCounts struct {
	fuzzCalls, transformations, classifyCalls int
	queries, appends                          int
	oracleCalls, puts, putBytes, gets         atomic.Int64
}

// stepDriver owns one engine stack and store, like one service instance.
type stepDriver struct {
	rec    *recorder
	eng    *runner.Engine
	reng   *replay.Engine
	beng   *bisect.Engine
	st     *store.Store
	memo   *memostore.Store
	parent atomic.Int64 // span enclosing calls made now; read by the wrappers
	root   int          // the job's root span
	counts driverCounts
	// The optimizer profile and plan-lowering time as the bisect stage
	// starts, so the campaign stages' share can be told apart.
	preBisectOpt  []opt.PassStat
	preBisectPlan int64
}

// newStepDriver builds a driver over an open store with a fresh engine of the
// given worker count; memoDir, when set, attaches the persistent memo tier.
// The memo store's open is spanned as a root of its own, outside the job.
func newStepDriver(rec *recorder, st *store.Store, workers int, memoDir string) (*stepDriver, error) {
	d := &stepDriver{
		rec:  rec,
		eng:  runner.New(workers),
		reng: replay.NewEngine(replay.DefaultBudget),
		st:   st,
	}
	d.beng = bisect.New(d.eng)
	d.parent.Store(-1)
	if memoDir != "" {
		end := d.enter("memostore.open")
		memo, err := memostore.Open(memoDir, 0)
		end()
		if err != nil {
			return nil, fmt.Errorf("memo store: %w", err)
		}
		d.memo = memo
		d.eng.SetMemoStore(memo)
	}
	return d, nil
}

// close flushes the memo store, if any. The store stays with the caller.
func (d *stepDriver) close() error {
	if d.memo != nil {
		return d.memo.Close()
	}
	return nil
}

// enter opens a span under the current parent and makes it the parent of
// calls made until the returned function closes it.
func (d *stepDriver) enter(name string) (end func()) {
	if d.rec == nil {
		return func() {}
	}
	prev := d.parent.Load()
	id := d.rec.begin(name, int(prev))
	d.parent.Store(int64(id))
	return func() {
		d.rec.end(id)
		d.parent.Store(prev)
	}
}

// leaf spans one call under the current parent without becoming a parent;
// safe from concurrent goroutines.
func (d *stepDriver) leaf(name string) (end func()) {
	if d.rec == nil {
		return func() {}
	}
	id := d.rec.begin(name, int(d.parent.Load()))
	return func() { d.rec.end(id) }
}

// PutBlob and GetBlob make the driver the steps' service.BlobStore: every
// blob access is spanned and counted.
func (d *stepDriver) PutBlob(data []byte) (string, error) {
	end := d.leaf("store.put")
	defer end()
	d.counts.puts.Add(1)
	d.counts.putBytes.Add(int64(len(data)))
	return d.st.PutBlob(data)
}

func (d *stepDriver) GetBlob(hash string) ([]byte, error) {
	end := d.leaf("store.get")
	defer end()
	d.counts.gets.Add(1)
	return d.st.GetBlob(hash)
}

// oracle is the reduce.Runner the interestingness tests query: the engine,
// with every query spanned and counted.
type oracle struct{ d *stepDriver }

func (o oracle) Run(tg *target.Target, m *spirv.Module, in interp.Inputs) (*interp.Image, *target.Crash) {
	end := o.d.leaf("reduce.oracle")
	defer end()
	o.d.counts.oracleCalls.Add(1)
	return o.d.eng.Run(tg, m, in)
}

func (d *stepDriver) env() service.Env {
	return service.Env{Eng: d.eng, Reng: d.reng, Blobs: d}
}

func (d *stepDriver) append(id, typ string, data any) error {
	end := d.leaf("store.journal_append")
	defer end()
	d.counts.appends++
	_, err := d.st.Journal().Append(id, typ, data)
	return err
}

func (d *stepDriver) sync() error {
	end := d.leaf("store.journal_sync")
	defer end()
	return d.st.Journal().Sync()
}

func (d *stepDriver) checkpoint(name string, v any) error {
	end := d.leaf("store.checkpoint")
	defer end()
	return d.st.SaveCheckpoint(name, v)
}

// runJob runs spec as campaign campaignID, then bisect job jobID over it,
// inside one root span "job" (when tracing). The returned duration is the
// job's wall time.
func (d *stepDriver) runJob(ctx context.Context, spec service.CampaignSpec, campaignID, jobID string) (*jobRecords, time.Duration, error) {
	if err := spec.Normalize(); err != nil {
		return nil, 0, err
	}
	refs := corpus.References()
	donors := corpus.Donors()
	targets, err := service.ResolveTargets(spec.Targets)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	end := d.enter("job")
	d.root = int(d.parent.Load())
	out, err := d.job(ctx, spec, campaignID, jobID, refs, donors, targets)
	end()
	return out, time.Since(start), err
}

func (d *stepDriver) job(ctx context.Context, spec service.CampaignSpec, campaignID, jobID string, refs []corpus.Item, donors []*spirv.Module, targets []*target.Target) (*jobRecords, error) {
	if err := d.append(campaignID, recCampaignCreated, spec); err != nil {
		return nil, err
	}
	if err := d.sync(); err != nil {
		return nil, err
	}
	out := &jobRecords{}
	bugs := make(map[int][]service.BugRef, spec.Tests)
	for i := 0; i < spec.Tests; i++ {
		found, err := d.fuzzStep(ctx, spec, targets, refs, donors, i)
		if err != nil {
			return nil, fmt.Errorf("test %d: %w", i, err)
		}
		if err := d.append(campaignID, recTestDone, testDoneRec{Index: i, Bugs: found}); err != nil {
			return nil, err
		}
		bugs[i] = found
	}

	end := d.enter("service.select")
	cases := service.SelectReductions(campaignID, spec, bugs)
	end()
	reduced := make(map[string]service.ReducedRec, len(cases))
	for _, rc := range cases {
		rec, err := d.reduceStep(ctx, campaignID, refs, rc)
		if err != nil {
			return nil, fmt.Errorf("reduce %s: %w", rc.Name, err)
		}
		if err := d.append(campaignID, recReduced, rec); err != nil {
			return nil, err
		}
		reduced[rc.Name] = rec
		out.Reduced = append(out.Reduced, rec)
	}
	end = d.enter("dedup")
	buckets, err := service.BuildBuckets(campaignID, spec, cases, reduced)
	end()
	if err != nil {
		return nil, err
	}
	if err := d.checkpoint("buckets-"+campaignID, service.BucketSet{Campaign: campaignID, Buckets: buckets}); err != nil {
		return nil, err
	}
	if err := d.append(campaignID, recCampaignDone, campaignDoneRec{Buckets: len(buckets)}); err != nil {
		return nil, err
	}
	if err := d.sync(); err != nil {
		return nil, err
	}
	out.Buckets = buckets

	// The bisect job, as the service runs it once the campaign is done.
	d.preBisectOpt = opt.PassStats()
	d.preBisectPlan = d.eng.Stats().PlanCompileNanos
	if err := d.append(jobID, recBisectCreated, bisectCreatedRec{Campaign: campaignID}); err != nil {
		return nil, err
	}
	if err := d.sync(); err != nil {
		return nil, err
	}
	outcomes := make(map[string]service.BisectOutcome, len(cases))
	for _, rec := range out.Reduced {
		o, err := d.bisectStep(refs, rec)
		if err != nil {
			return nil, fmt.Errorf("bisect %s: %w", rec.Case, err)
		}
		if err := d.append(jobID, recCaseBisected, o); err != nil {
			return nil, err
		}
		outcomes[o.Case] = o
	}
	end = d.enter("dedup")
	rebuilt, err := service.BuildBuckets(campaignID, spec, cases, reduced)
	var set service.BisectSet
	if err == nil {
		set, err = service.BuildBisectSet(jobID, campaignID, cases, reduced, outcomes, len(rebuilt))
	}
	end()
	if err != nil {
		return nil, err
	}
	if err := d.checkpoint("bisect-"+jobID, set); err != nil {
		return nil, err
	}
	if err := d.append(jobID, recBisectDone, bisectDoneRec{BisectBuckets: set.BisectBuckets}); err != nil {
		return nil, err
	}
	if err := d.sync(); err != nil {
		return nil, err
	}
	out.Bisect = set
	return out, nil
}

// fuzzStep is service.FuzzStep split at its layer boundaries.
func (d *stepDriver) fuzzStep(ctx context.Context, spec service.CampaignSpec, targets []*target.Target, refs []corpus.Item, donors []*spirv.Module, i int) ([]service.BugRef, error) {
	item := refs[i%len(refs)]
	seed := spec.SeedBase + int64(i)
	end := d.enter("fuzz")
	res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{
		Seed:                  seed,
		Donors:                donors,
		EnableRecommendations: spec.Tool == string(harness.ToolSpirvFuzz),
		MinPasses:             5,
		MaxPasses:             14,
	})
	end()
	if err != nil {
		return nil, err
	}
	d.counts.fuzzCalls++
	d.counts.transformations += len(res.Transformations)

	end = d.enter("harness.classify")
	sigs, err := harness.ClassifyAllCtx(ctx, d.eng, targets, item.Mod, res.Variant, item.Inputs, res.Inputs)
	end()
	if err != nil {
		return nil, err
	}
	d.counts.classifyCalls++

	var bugs []service.BugRef
	var seqHash, variantHash string
	for ti, tg := range targets {
		if sigs[ti] == "" {
			continue
		}
		if seqHash == "" {
			// Serializing the fuzzer's output counts as fuzz work.
			end := d.enter("fuzz")
			seqData, err := fuzz.MarshalSequence(res.Transformations)
			end()
			if err != nil {
				return nil, err
			}
			if seqHash, err = d.PutBlob(seqData); err != nil {
				return nil, err
			}
			end = d.enter("fuzz")
			variant := res.Variant.EncodeBytes()
			end()
			if variantHash, err = d.PutBlob(variant); err != nil {
				return nil, err
			}
		}
		bugs = append(bugs, service.BugRef{
			Target:      tg.Name,
			Signature:   sigs[ti],
			Reference:   item.Name,
			Seed:        seed,
			SeqHash:     seqHash,
			VariantHash: variantHash,
		})
	}
	return bugs, nil
}

func findRef(refs []corpus.Item, name string) (*corpus.Item, error) {
	for i := range refs {
		if refs[i].Name == name {
			return &refs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown reference %q", name)
}

// reduceStep is service.ReduceStep split at its layer boundaries: the whole
// case is one "reduce" span whose children are the blob accesses and the
// oracle queries, so its self time is replay, ddmin bookkeeping, the
// AddFunction shrink and report encoding.
func (d *stepDriver) reduceStep(ctx context.Context, campaignID string, refs []corpus.Item, rc service.ReduceCase) (service.ReducedRec, error) {
	end := d.enter("reduce")
	defer end()
	tg := target.ByName(rc.Bug.Target)
	if tg == nil {
		return service.ReducedRec{}, fmt.Errorf("unknown target %q", rc.Bug.Target)
	}
	item, err := findRef(refs, rc.Bug.Reference)
	if err != nil {
		return service.ReducedRec{}, err
	}
	seqData, err := d.GetBlob(rc.Bug.SeqHash)
	if err != nil {
		return service.ReducedRec{}, err
	}
	ts, err := fuzz.UnmarshalSequence(seqData)
	if err != nil {
		return service.ReducedRec{}, err
	}
	interesting := reduce.ForOutcomeOn(oracle{d}, tg, item.Mod, item.Inputs, rc.Bug.Signature)
	res, err := reduce.ReduceParallelReplayCtx(ctx, item.Mod, item.Inputs, ts, interesting, service.ReduceWaveWidth, d.reng)
	if err != nil {
		return service.ReducedRec{}, err
	}
	d.counts.queries += res.Queries
	reducedSeq, err := fuzz.MarshalSequence(res.Sequence)
	if err != nil {
		return service.ReducedRec{}, err
	}
	blob, err := json.MarshalIndent(service.Report{
		Case:            rc.Name,
		Campaign:        campaignID,
		Target:          rc.Bug.Target,
		Signature:       rc.Bug.Signature,
		Reference:       rc.Bug.Reference,
		Seed:            rc.Bug.Seed,
		Kept:            res.Kept,
		Delta:           res.Delta,
		Queries:         res.Queries,
		Transformations: json.RawMessage(reducedSeq),
	}, "", "  ")
	if err != nil {
		return service.ReducedRec{}, err
	}
	reportHash, err := d.PutBlob(blob)
	if err != nil {
		return service.ReducedRec{}, err
	}
	return service.ReducedRec{
		Case:       rc.Name,
		Target:     rc.Bug.Target,
		Signature:  rc.Bug.Signature,
		ReportHash: reportHash,
		Types:      core.SortedTypes(core.TypeSet(res.Sequence, fuzz.SupportingTypes())),
		KeptLen:    len(res.Kept),
		Delta:      res.Delta,
		Queries:    res.Queries,
	}, nil
}

// bisectStep is service.BisectStep split into rebuilding the minimized
// variant and the release-history search.
func (d *stepDriver) bisectStep(refs []corpus.Item, rec service.ReducedRec) (service.BisectOutcome, error) {
	end := d.enter("bisect.variant")
	fc, item, err := service.MinimizedVariant(d.env(), refs, rec)
	end()
	if err != nil {
		return service.BisectOutcome{}, err
	}
	end = d.enter("bisect")
	res, err := d.beng.Bisect(bisect.Case{
		Target:         rec.Target,
		Signature:      rec.Signature,
		Original:       item.Mod,
		OriginalInputs: item.Inputs,
		Variant:        fc.Mod,
		Inputs:         fc.Inputs,
	})
	end()
	if err != nil {
		return service.BisectOutcome{}, err
	}
	return service.BisectOutcome{
		Case:      rec.Case,
		Target:    rec.Target,
		Signature: rec.Signature,
		FirstBad:  res.FirstBad,
		Queries:   res.Queries,
		CacheHits: res.CacheHits,
	}, nil
}
