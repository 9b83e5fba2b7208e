package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"spirvfuzz/internal/store"
)

// Journal record types, written identically by both spirvd roles. The
// journal is the single source of truth for what completed; everything else
// (status counters, buckets, bisection sets) is derived from it.
const (
	recCampaignCreated = "campaign_created" // data: CampaignSpec (normalized)
	recTestDone        = "test_done"        // data: TestDone
	recReduced         = "reduced"          // data: ReducedRec
	recCampaignDone    = "campaign_done"    // data: campaignDoneRec
	recCampaignFailed  = "campaign_failed"  // data: failedRec
	// Bisection-job records; journaled under the job's own ID ("b001", ...)
	// in the record's campaign field.
	recBisectCreated = "bisect_created" // data: bisectCreatedRec
	recCaseBisected  = "case_bisected"  // data: BisectOutcome
	recBisectDone    = "bisect_done"    // data: bisectDoneRec
	recBisectFailed  = "bisect_failed"  // data: failedRec
)

type campaignDoneRec struct {
	Buckets int `json:"buckets"`
}

type failedRec struct {
	Error string `json:"error"`
}

// bisectCreatedRec journals a new bisection job and the campaign it targets.
type bisectCreatedRec struct {
	Campaign string `json:"campaign"`
}

type bisectDoneRec struct {
	BisectBuckets int `json:"bisect_buckets"`
}

// Unit phases, in pipeline order. They double as the cluster's shard phases.
const (
	PhaseFuzz   = "fuzz"
	PhaseReduce = "reduce"
	PhaseBisect = "bisect"
)

// Record errors. ErrInvalidRecord marks a record that names no unit of its
// job's current phase — an unknown job, a test index outside [0, Tests), an
// unselected case, a case the bisection job does not list — and is never
// journaled. ErrDuplicate marks a record with nothing new in it: every unit
// it names is already recorded, or its job already finished. A late or
// repeated result of a deterministic step is harmless, so callers drop it.
var (
	ErrInvalidRecord = errors.New("service: invalid record")
	ErrDuplicate     = errors.New("service: duplicate record")
)

func invalid(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrInvalidRecord}, args...)...)
}

// TestDone is one generated-and-classified test (possibly bug-free), as the
// test_done record journals it and a cluster worker reports it.
type TestDone struct {
	Index int      `json:"index"`
	Bugs  []BugRef `json:"bugs,omitempty"`
	// Node is the cluster node that ran the test, kept as the locality hint
	// for its cases' reductions; empty on a standalone service.
	Node string `json:"node,omitempty"`
}

// Unit is one missing step of a job's current phase, handed to whichever
// executor runs it: a queue job on the standalone service, a leased shard
// slice on a cluster coordinator.
type Unit struct {
	// Job is the campaign ID, or the bisection-job ID for bisect units.
	Job   string
	Phase string
	// Index is the test index of a fuzz unit, or the case's position in the
	// canonical selection order of a reduce or bisect unit.
	Index int
	// Spec is the campaign's spec (the bisected campaign's, for bisect units).
	Spec CampaignSpec
	// Case is a reduce unit's case; Rec is the reduction a bisect unit bisects.
	Case ReduceCase
	Rec  ReducedRec
	// Node is the node that fuzzed the unit's case, when journaled: the
	// coordinator's best-effort dispatch preference.
	Node string
}

// campaign is the in-memory state of one campaign, derived from the journal.
type campaign struct {
	id   string
	spec CampaignSpec

	mu        sync.Mutex
	state     string
	testsDone map[int][]BugRef      // index -> journaled bug refs
	caseNode  map[string]string     // case -> node that fuzzed its test
	cases     []ReduceCase          // selection, possibly empty
	selected  map[string]bool       // names in cases; non-nil once selection ran
	reduced   map[string]ReducedRec // case name -> journaled reduction
	buckets   []Bucket
	errMsg    string

	skippedTests      int
	skippedReductions int
	// memoBase holds the engine's memo counters when this process started
	// running the campaign; memoHits/memoMisses the deltas at its end.
	memoBase             memoCounts
	memoHits, memoMisses uint64
}

func (c *campaign) status() CampaignStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CampaignStatus{
		ID:                c.id,
		State:             c.state,
		Spec:              c.spec,
		TestsDone:         len(c.testsDone),
		ReduceTotal:       len(c.cases),
		Reduced:           len(c.reduced),
		Buckets:           len(c.buckets),
		SkippedTests:      c.skippedTests,
		SkippedReductions: c.skippedReductions,
		Error:             c.errMsg,
		MemoHits:          c.memoHits,
		MemoMisses:        c.memoMisses,
	}
	for _, bugs := range c.testsDone {
		st.Bugs += len(bugs)
	}
	return st
}

// bisectJob is the in-memory state of one bisection job, derived from the
// journal like a campaign. Its case list is the finished campaign's
// selection with the reductions snapshotted, so sharding is deterministic
// and the set matches a single-node run's bitwise.
type bisectJob struct {
	id   string
	camp *campaign

	mu       sync.Mutex
	state    string
	cases    []ReduceCase
	reduced  map[string]ReducedRec // the listed cases' reductions
	outcomes map[string]BisectOutcome
	set      *BisectSet // non-nil once done
	skipped  int
	errMsg   string
}

func (j *bisectJob) status() BisectStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return BisectStatus{
		ID:           j.id,
		Campaign:     j.camp.id,
		State:        j.state,
		CasesTotal:   len(j.cases),
		CasesDone:    len(j.outcomes),
		SkippedCases: j.skipped,
		Error:        j.errMsg,
	}
}

// Machine is the journaled state machine of every campaign and bisection job
// a spirvd process serves, whichever role executes their units. It owns the
// journal records, recovery by replay, the c%03d/b%03d IDs, status
// derivation, and the phase transitions: every test recorded selects the
// reductions, every reduction recorded builds the buckets, every case
// bisected builds the bisection set. Buckets and bisection sets are pure
// functions of the journaled records, so they are never stored: recovery
// rebuilds them.
//
// Record methods journal first, then apply, and return the units the next
// phase still needs; the Machine never calls into its executor. Locks are
// taken Machine first, then one campaign or bisection job.
type Machine struct {
	st   *store.Store
	memo func() (hits, misses uint64)

	mu           sync.Mutex
	campaigns    map[string]*campaign
	order        []string
	nextID       int
	bisects      map[string]*bisectJob
	bisectOrder  []string
	nextBisectID int
	skipped      uint64 // journal-satisfied units; set in recovery, read-only after
}

// memoCounts is a reading of the executing engine's memo hit and miss
// counters.
type memoCounts struct{ hits, misses uint64 }

// memoNow reads the memo counters. Callers read them before taking any
// lock, so the counter function never runs under one.
func (m *Machine) memoNow() memoCounts {
	if m.memo == nil {
		return memoCounts{}
	}
	hits, misses := m.memo()
	return memoCounts{hits, misses}
}

// NewMachine replays st's journal and returns the recovered machine plus the
// missing units of every unfinished job, campaigns first, each in creation
// order. A recovered job with nothing missing finishes during recovery; a
// job whose *_done record is journaled is done, and its buckets or
// bisection set are rebuilt from the replayed records without journaling
// anything. memo, when non-nil, reads the executing engine's memo
// counters; each campaign's status reports their delta over the campaign's
// run in this process. Recovery fails on any record type it does not know.
func NewMachine(st *store.Store, memo func() (hits, misses uint64)) (*Machine, []Unit, error) {
	m := &Machine{
		st:           st,
		memo:         memo,
		campaigns:    make(map[string]*campaign),
		nextID:       1,
		bisects:      make(map[string]*bisectJob),
		nextBisectID: 1,
	}
	if err := st.Journal().Replay(m.replay); err != nil {
		return nil, nil, err
	}
	for _, id := range m.order {
		var n int
		if _, err := fmt.Sscanf(id, "c%d", &n); err == nil && n >= m.nextID {
			m.nextID = n + 1
		}
	}
	for _, id := range m.bisectOrder {
		var n int
		if _, err := fmt.Sscanf(id, "b%d", &n); err == nil && n >= m.nextBisectID {
			m.nextBisectID = n + 1
		}
	}
	var units []Unit
	now := m.memoNow()
	for _, id := range m.order {
		c := m.campaigns[id]
		if len(c.testsDone) == c.spec.Tests {
			c.selectCases()
		}
		if c.state == StateDone {
			if c.selected == nil {
				return nil, nil, fmt.Errorf("service: campaign %s journaled done with unrecorded tests", id)
			}
			buckets, err := BuildBuckets(c.id, c.spec, c.cases, c.reduced)
			if err != nil {
				return nil, nil, err
			}
			c.buckets = buckets
			continue
		}
		if c.state != StatePending {
			continue
		}
		c.skippedTests = len(c.testsDone)
		c.skippedReductions = len(c.reduced)
		m.skipped += uint64(c.skippedTests + c.skippedReductions)
		units = append(units, m.activate(c, now)...)
	}
	for _, id := range m.bisectOrder {
		j := m.bisects[id]
		if j.state == StateDone {
			if err := j.list(); err != nil {
				return nil, nil, err
			}
			set, err := j.buildSet()
			if err != nil {
				return nil, nil, err
			}
			j.set = &set
			continue
		}
		if j.state != StatePending {
			continue
		}
		j.skipped = len(j.outcomes)
		m.skipped += uint64(j.skipped)
		units = append(units, m.activateBisect(j)...)
	}
	return m, units, nil
}

// replay applies one journal record during recovery.
func (m *Machine) replay(r store.Record) error {
	switch r.Type {
	case recCampaignCreated:
		if m.campaigns[r.Campaign] != nil {
			return fmt.Errorf("service: campaign %q created twice", r.Campaign)
		}
		var spec CampaignSpec
		if err := json.Unmarshal(r.Data, &spec); err != nil {
			return fmt.Errorf("service: campaign %q spec: %w", r.Campaign, err)
		}
		m.campaigns[r.Campaign] = newCampaign(r.Campaign, spec)
		m.order = append(m.order, r.Campaign)
		return nil
	case recBisectCreated:
		if m.bisects[r.Campaign] != nil {
			return fmt.Errorf("service: bisect job %q created twice", r.Campaign)
		}
		var rec bisectCreatedRec
		if err := json.Unmarshal(r.Data, &rec); err != nil {
			return fmt.Errorf("service: bisect job %q spec: %w", r.Campaign, err)
		}
		c := m.campaigns[rec.Campaign]
		if c == nil {
			return fmt.Errorf("service: bisect job %q references unknown campaign %q", r.Campaign, rec.Campaign)
		}
		m.bisects[r.Campaign] = newBisectJob(r.Campaign, c)
		m.bisectOrder = append(m.bisectOrder, r.Campaign)
		return nil
	case recCaseBisected, recBisectDone, recBisectFailed:
		j := m.bisects[r.Campaign]
		if j == nil {
			return fmt.Errorf("service: journal references unknown bisect job %q", r.Campaign)
		}
		return m.replayBisect(j, r)
	case recTestDone, recReduced, recCampaignDone, recCampaignFailed:
		c := m.campaigns[r.Campaign]
		if c == nil {
			return fmt.Errorf("service: journal references unknown campaign %q", r.Campaign)
		}
		return m.replayCampaign(c, r)
	}
	return fmt.Errorf("service: journal record %d has unknown type %q", r.Seq, r.Type)
}

func (m *Machine) replayCampaign(c *campaign, r store.Record) error {
	switch r.Type {
	case recTestDone:
		var rec TestDone
		if err := json.Unmarshal(r.Data, &rec); err != nil {
			return err
		}
		if m.lacksBlob(rec) {
			return store.ErrTornTail
		}
		c.addTest(rec)
	case recReduced:
		var rec ReducedRec
		if err := json.Unmarshal(r.Data, &rec); err != nil {
			return err
		}
		if !m.st.HasBlob(rec.ReportHash) {
			return store.ErrTornTail
		}
		c.reduced[rec.Case] = rec
	case recCampaignDone:
		c.state = StateDone
	case recCampaignFailed:
		var rec failedRec
		if err := json.Unmarshal(r.Data, &rec); err != nil {
			return err
		}
		c.state = StateFailed
		c.errMsg = rec.Error
	}
	return nil
}

// lacksBlob reports whether t names a sequence blob the store lacks. Every
// record is journaled after the blobs it names are stored, and
// Journal.Sync makes those blobs durable first, so in replay such a record
// can only be one that a power cut kept while losing the blob: it and
// every later record are a torn tail (store.ErrTornTail), whose steps
// re-run.
func (m *Machine) lacksBlob(t TestDone) bool {
	for _, bug := range t.Bugs {
		if !m.st.HasBlob(bug.SeqHash) {
			return true
		}
	}
	return false
}

func (m *Machine) replayBisect(j *bisectJob, r store.Record) error {
	switch r.Type {
	case recCaseBisected:
		var out BisectOutcome
		if err := json.Unmarshal(r.Data, &out); err != nil {
			return err
		}
		j.outcomes[out.Case] = out
	case recBisectDone:
		j.state = StateDone
	case recBisectFailed:
		var rec failedRec
		if err := json.Unmarshal(r.Data, &rec); err != nil {
			return err
		}
		j.state = StateFailed
		j.errMsg = rec.Error
	}
	return nil
}

func newCampaign(id string, spec CampaignSpec) *campaign {
	return &campaign{
		id:        id,
		spec:      spec,
		state:     StatePending,
		testsDone: make(map[int][]BugRef),
		caseNode:  make(map[string]string),
		reduced:   make(map[string]ReducedRec),
	}
}

func newBisectJob(id string, c *campaign) *bisectJob {
	return &bisectJob{
		id:       id,
		camp:     c,
		state:    StatePending,
		outcomes: make(map[string]BisectOutcome),
	}
}

func (c *campaign) addTest(t TestDone) {
	c.testsDone[t.Index] = t.Bugs
	if t.Node != "" {
		for _, bug := range t.Bugs {
			c.caseNode[CaseName(c.id, bug)] = t.Node
		}
	}
}

// selectCases runs the deterministic selection over the recorded tests.
func (c *campaign) selectCases() {
	c.cases = SelectReductions(c.id, c.spec, c.testsDone)
	c.selected = make(map[string]bool, len(c.cases))
	for _, rc := range c.cases {
		c.selected[rc.Name] = true
	}
}

// list snapshots the bisected campaign's selection and reductions, or
// reports the first selected case without one. Called before the job is
// registered, or in recovery.
func (j *bisectJob) list() error {
	c := j.camp
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.selected == nil {
		return fmt.Errorf("service: bisect job %s: campaign %s has unrecorded tests", j.id, c.id)
	}
	reduced := make(map[string]ReducedRec, len(c.cases))
	for _, rc := range c.cases {
		rec, ok := c.reduced[rc.Name]
		if !ok {
			return fmt.Errorf("service: bisect job %s: campaign %s case %s not reduced", j.id, c.id, rc.Name)
		}
		reduced[rc.Name] = rec
	}
	j.cases, j.reduced = c.cases, reduced
	return nil
}

func terminal(state string) bool { return state == StateDone || state == StateFailed }

// activate starts or resumes a campaign in its current phase and returns the
// phase's missing units. Called before the campaign is registered, or in
// recovery.
func (m *Machine) activate(c *campaign, now memoCounts) []Unit {
	c.memoBase = now
	if c.selected != nil {
		return m.enterReduce(c, now)
	}
	c.state = StateFuzzing
	var units []Unit
	for i := 0; i < c.spec.Tests; i++ {
		if _, ok := c.testsDone[i]; !ok {
			units = append(units, Unit{Job: c.id, Phase: PhaseFuzz, Index: i, Spec: c.spec})
		}
	}
	return units
}

// enterReduce returns the selected cases still to reduce; with none left it
// finishes the campaign. Caller holds c.mu or has c to itself.
func (m *Machine) enterReduce(c *campaign, now memoCounts) []Unit {
	c.state = StateReducing
	var units []Unit
	for i, rc := range c.cases {
		if _, ok := c.reduced[rc.Name]; !ok {
			units = append(units, Unit{Job: c.id, Phase: PhaseReduce, Index: i, Spec: c.spec, Case: rc, Node: c.caseNode[rc.Name]})
		}
	}
	if len(units) == 0 {
		m.finish(c, now)
	}
	return units
}

// finish builds the buckets over the records in canonical selection order
// and journals campaign_done; a failure fails the campaign.
// now is the memo reading at the end of the campaign's run. Caller holds
// c.mu.
func (m *Machine) finish(c *campaign, now memoCounts) {
	buckets, err := BuildBuckets(c.id, c.spec, c.cases, c.reduced)
	if err == nil {
		err = m.appendSync(c.id, recCampaignDone, campaignDoneRec{Buckets: len(buckets)})
	}
	if err != nil {
		m.failCampaign(c, err.Error(), now)
		return
	}
	c.buckets = buckets
	c.state = StateDone
	c.stopMemo(now)
}

// failCampaign marks a campaign failed and journals it best-effort: an
// unjournaled failure leaves the campaign resumable, the safer outcome.
// Caller holds c.mu.
func (m *Machine) failCampaign(c *campaign, msg string, now memoCounts) {
	c.state = StateFailed
	c.errMsg = msg
	c.stopMemo(now)
	m.st.Journal().Append(c.id, recCampaignFailed, failedRec{Error: msg})
}

func (c *campaign) stopMemo(now memoCounts) {
	c.memoHits, c.memoMisses = now.hits-c.memoBase.hits, now.misses-c.memoBase.misses
}

// activateBisect lists a bisection job's cases and returns those without a
// journaled verdict; with none left it finishes the job. Called before the
// job is registered, or in recovery.
func (m *Machine) activateBisect(j *bisectJob) []Unit {
	if err := j.list(); err != nil {
		m.failBisect(j, err.Error())
		return nil
	}
	j.state = StateBisecting
	var units []Unit
	for i, rc := range j.cases {
		if _, ok := j.outcomes[rc.Name]; !ok {
			units = append(units, Unit{Job: j.id, Phase: PhaseBisect, Index: i, Spec: j.camp.spec, Rec: j.reduced[rc.Name], Node: j.camp.caseNode[rc.Name]})
		}
	}
	if len(units) == 0 {
		m.finishBisect(j)
	}
	return units
}

// buildSet assembles a listed job's result set. The transform-signal bucket
// count is rebuilt from the snapshotted records rather than read off the
// campaign.
func (j *bisectJob) buildSet() (BisectSet, error) {
	c := j.camp
	buckets, err := BuildBuckets(c.id, c.spec, j.cases, j.reduced)
	if err != nil {
		return BisectSet{}, err
	}
	return BuildBisectSet(j.id, c.id, j.cases, j.reduced, j.outcomes, len(buckets))
}

// finishBisect assembles the result set and journals bisect_done; a failure
// fails the job. Caller holds j.mu.
func (m *Machine) finishBisect(j *bisectJob) {
	set, err := j.buildSet()
	if err == nil {
		err = m.appendSync(j.id, recBisectDone, bisectDoneRec{BisectBuckets: set.BisectBuckets})
	}
	if err != nil {
		m.failBisect(j, err.Error())
		return
	}
	j.set = &set
	j.state = StateDone
}

// failBisect is failCampaign for a bisection job. Caller holds j.mu.
func (m *Machine) failBisect(j *bisectJob, msg string) {
	j.state = StateFailed
	j.errMsg = msg
	m.st.Journal().Append(j.id, recBisectFailed, failedRec{Error: msg})
}

// appendSync journals one record and flushes it to stable storage.
func (m *Machine) appendSync(job, typ string, data any) error {
	if _, err := m.st.Journal().Append(job, typ, data); err != nil {
		return err
	}
	return m.st.Journal().Sync()
}

// StartCampaign validates and durably journals a new campaign, registers it,
// and returns its initial status and fuzz units. Nothing is registered
// unless the record is durable.
func (m *Machine) StartCampaign(spec CampaignSpec) (CampaignStatus, []Unit, error) {
	if err := spec.Normalize(); err != nil {
		return CampaignStatus{}, nil, err
	}
	now := m.memoNow()
	m.mu.Lock()
	defer m.mu.Unlock()
	id := fmt.Sprintf("c%03d", m.nextID)
	if err := m.appendSync(id, recCampaignCreated, spec); err != nil {
		return CampaignStatus{}, nil, err
	}
	m.nextID++
	c := newCampaign(id, spec)
	units := m.activate(c, now)
	m.campaigns[id] = c
	m.order = append(m.order, id)
	return c.status(), units, nil
}

// StartBisect validates and durably journals a bisection job over a finished
// campaign, registers it, and returns its initial status and units.
func (m *Machine) StartBisect(spec BisectSpec) (BisectStatus, []Unit, error) {
	if spec.Campaign == "" {
		return BisectStatus{}, nil, fmt.Errorf("service: bisect needs a campaign")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.campaigns[spec.Campaign]
	if c == nil {
		return BisectStatus{}, nil, fmt.Errorf("service: no campaign %q", spec.Campaign)
	}
	if st := c.status(); st.State != StateDone {
		return BisectStatus{}, nil, fmt.Errorf("service: campaign %s is %s; bisection needs a finished campaign", c.id, st.State)
	}
	id := fmt.Sprintf("b%03d", m.nextBisectID)
	if err := m.appendSync(id, recBisectCreated, bisectCreatedRec{Campaign: c.id}); err != nil {
		return BisectStatus{}, nil, err
	}
	m.nextBisectID++
	j := newBisectJob(id, c)
	units := m.activateBisect(j)
	m.bisects[id] = j
	m.bisectOrder = append(m.bisectOrder, id)
	return j.status(), units, nil
}

func (m *Machine) campaign(id string) *campaign {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.campaigns[id]
}

func (m *Machine) bisectJob(id string) *bisectJob {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bisects[id]
}

// RecordTests journals and applies fuzz-phase results of campaign id. Every
// index must lie in [0, Tests); already-recorded ones are skipped. When the
// last test lands it returns the selected cases to reduce (finishing the
// campaign if there are none).
func (m *Machine) RecordTests(id string, tests []TestDone) ([]Unit, error) {
	now := m.memoNow()
	c := m.campaign(id)
	if c == nil {
		return nil, invalid("no campaign %q", id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range tests {
		if t.Index < 0 || t.Index >= c.spec.Tests {
			return nil, invalid("campaign %s has no test %d", id, t.Index)
		}
		if m.lacksBlob(t) {
			return nil, invalid("campaign %s test %d names a sequence blob the store lacks", id, t.Index)
		}
	}
	if terminal(c.state) {
		return nil, ErrDuplicate
	}
	fresh := 0
	for _, t := range tests {
		if _, ok := c.testsDone[t.Index]; ok {
			continue
		}
		if _, err := m.st.Journal().Append(id, recTestDone, t); err != nil {
			return nil, err
		}
		c.addTest(t)
		fresh++
	}
	if fresh == 0 {
		return nil, ErrDuplicate
	}
	if len(c.testsDone) < c.spec.Tests {
		return nil, nil
	}
	c.selectCases()
	return m.enterReduce(c, now), nil
}

// RecordReduced journals and applies reductions of campaign id. Every record
// must name a selected case, so none is accepted before selection; when the
// last one lands the campaign finishes.
func (m *Machine) RecordReduced(id string, recs []ReducedRec) ([]Unit, error) {
	now := m.memoNow()
	c := m.campaign(id)
	if c == nil {
		return nil, invalid("no campaign %q", id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rec := range recs {
		if !c.selected[rec.Case] {
			return nil, invalid("campaign %s did not select case %q", id, rec.Case)
		}
		if !m.st.HasBlob(rec.ReportHash) {
			return nil, invalid("campaign %s case %s names a report blob the store lacks", id, rec.Case)
		}
	}
	if terminal(c.state) {
		return nil, ErrDuplicate
	}
	fresh := 0
	for _, rec := range recs {
		if _, ok := c.reduced[rec.Case]; ok {
			continue
		}
		if _, err := m.st.Journal().Append(id, recReduced, rec); err != nil {
			return nil, err
		}
		c.reduced[rec.Case] = rec
		fresh++
	}
	if fresh == 0 {
		return nil, ErrDuplicate
	}
	if len(c.reduced) == len(c.cases) {
		m.finish(c, now)
	}
	return nil, nil
}

// RecordBisected journals and applies verdicts of bisection job id. Every
// outcome must name a listed case; when the last one lands the job finishes.
func (m *Machine) RecordBisected(id string, outs []BisectOutcome) ([]Unit, error) {
	j := m.bisectJob(id)
	if j == nil {
		return nil, invalid("no bisect job %q", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, out := range outs {
		if _, ok := j.reduced[out.Case]; !ok {
			return nil, invalid("bisect job %s does not list case %q", id, out.Case)
		}
	}
	if terminal(j.state) {
		return nil, ErrDuplicate
	}
	fresh := 0
	for _, out := range outs {
		if _, ok := j.outcomes[out.Case]; ok {
			continue
		}
		if _, err := m.st.Journal().Append(id, recCaseBisected, out); err != nil {
			return nil, err
		}
		j.outcomes[out.Case] = out
		fresh++
	}
	if fresh == 0 {
		return nil, ErrDuplicate
	}
	if len(j.outcomes) == len(j.cases) {
		m.finishBisect(j)
	}
	return nil, nil
}

// Missing reports whether u's job is unfinished and has no record of u.
func (m *Machine) Missing(u Unit) bool {
	if u.Phase == PhaseBisect {
		j := m.bisectJob(u.Job)
		if j == nil {
			return false
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		_, ok := j.outcomes[u.Rec.Case]
		return !ok && !terminal(j.state)
	}
	c := m.campaign(u.Job)
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var ok bool
	if u.Phase == PhaseFuzz {
		_, ok = c.testsDone[u.Index]
	} else {
		_, ok = c.reduced[u.Case.Name]
	}
	return !ok && !terminal(c.state)
}

// Fail marks campaign or bisection job id failed, journaling it
// best-effort. It returns ErrDuplicate if the job already finished and
// ErrInvalidRecord if there is no such job.
func (m *Machine) Fail(id, msg string) error {
	now := m.memoNow()
	if c := m.campaign(id); c != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		if terminal(c.state) {
			return ErrDuplicate
		}
		m.failCampaign(c, msg, now)
		return nil
	}
	if j := m.bisectJob(id); j != nil {
		j.mu.Lock()
		defer j.mu.Unlock()
		if terminal(j.state) {
			return ErrDuplicate
		}
		m.failBisect(j, msg)
		return nil
	}
	return invalid("no job %q", id)
}

// Campaign returns the status of one campaign.
func (m *Machine) Campaign(id string) (CampaignStatus, bool) {
	c := m.campaign(id)
	if c == nil {
		return CampaignStatus{}, false
	}
	return c.status(), true
}

// Campaigns returns all campaign statuses in creation order.
func (m *Machine) Campaigns() []CampaignStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]CampaignStatus, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.campaigns[id].status())
	}
	return out
}

// Buckets returns the recommended reports of every finished campaign, in
// creation order. With a non-empty id it returns just that campaign's set
// (empty until the campaign is done).
func (m *Machine) Buckets(id string) ([]BucketSet, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := m.order
	if id != "" {
		if m.campaigns[id] == nil {
			return nil, fmt.Errorf("service: no campaign %q", id)
		}
		ids = []string{id}
	}
	var out []BucketSet
	for _, cid := range ids {
		c := m.campaigns[cid]
		c.mu.Lock()
		set := BucketSet{Campaign: cid, Buckets: append([]Bucket(nil), c.buckets...)}
		c.mu.Unlock()
		if id != "" || len(set.Buckets) > 0 {
			out = append(out, set)
		}
	}
	return out, nil
}

// ReportBlob returns the raw reduced-report blob stored under hash.
func (m *Machine) ReportBlob(hash string) ([]byte, error) {
	return m.st.GetBlob(hash)
}

// BisectJob returns the status of one bisection job.
func (m *Machine) BisectJob(id string) (BisectStatus, bool) {
	j := m.bisectJob(id)
	if j == nil {
		return BisectStatus{}, false
	}
	return j.status(), true
}

// BisectJobs returns all bisection-job statuses in creation order.
func (m *Machine) BisectJobs() []BisectStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]BisectStatus, 0, len(m.bisectOrder))
	for _, id := range m.bisectOrder {
		out = append(out, m.bisects[id].status())
	}
	return out
}

// BisectResult returns a finished bisection job's result set.
func (m *Machine) BisectResult(id string) (BisectSet, error) {
	j := m.bisectJob(id)
	if j == nil {
		return BisectSet{}, fmt.Errorf("service: no bisect job %q", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.set == nil {
		return BisectSet{}, fmt.Errorf("service: bisect job %s is %s, not done", id, j.state)
	}
	return *j.set, nil
}

// Tally counts the jobs for both roles' GET /metrics.
func (m *Machine) Tally() Tally {
	t := Tally{JobsSkipped: m.skipped}
	for _, st := range m.Campaigns() {
		t.Campaigns++
		if st.State == StateDone {
			t.CampaignsDone++
		}
	}
	for _, st := range m.BisectJobs() {
		t.BisectJobs++
		if st.State == StateDone {
			t.BisectJobsDone++
		}
	}
	return t
}
