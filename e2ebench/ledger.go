package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its layer name, the span that caused
// it (-1 for the root), and its interval in nanoseconds since the recorder's
// epoch.
type span struct {
	name       string
	parent     int
	start, end int64
}

// recorder keeps spans in memory for one traced run; the ledger is computed
// from them after the run ends. A nil *recorder records nothing, which is how
// the untraced twin of a traced run executes the same code.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now()}
}

// begin opens a span under parent and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{name: name, parent: parent, start: now, end: -1})
	r.mu.Unlock()
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// ledger partitions the root span's wall time among layers. At every instant
// the time goes to the innermost open spans, those with no open child; when k
// of them overlap (the concurrent oracle queries of one ddmin wave) each gets
// 1/k. A layer's entry is therefore its self time: its spans' durations minus
// what their children cover. Instants when only the root is open are
// unattributed. The entries plus unattributed sum to the root's duration.
func (r *recorder) ledger(root int) (self map[string]time.Duration, unattributed, total time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	type event struct {
		at    int64
		id    int
		start bool
	}
	rs := r.spans[root]
	events := make([]event, 0, 2*len(r.spans))
	for id, s := range r.spans {
		if s.end < 0 || !r.under(id, root) {
			continue
		}
		events = append(events, event{s.start, id, true}, event{s.end, id, false})
	}
	// Ends sort before starts at equal times, so a span closing exactly as
	// its sibling opens never counts as overlapping it.
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return !events[i].start && events[j].start
	})
	openChildren := make(map[int]int)
	open := make(map[int]bool)
	leaves := make(map[int]bool)
	shares := make(map[string]float64)
	var unattr float64
	last := rs.start
	for _, ev := range events {
		if dt := float64(ev.at - last); dt > 0 && len(leaves) > 0 {
			per := dt / float64(len(leaves))
			for id := range leaves {
				if id == root {
					unattr += per
				} else {
					shares[r.spans[id].name] += per
				}
			}
		}
		last = ev.at
		s := r.spans[ev.id]
		if ev.start {
			open[ev.id] = true
			leaves[ev.id] = true
			if ev.id != root && open[s.parent] {
				openChildren[s.parent]++
				delete(leaves, s.parent)
			}
			continue
		}
		delete(open, ev.id)
		delete(leaves, ev.id)
		if ev.id != root && open[s.parent] {
			openChildren[s.parent]--
			if openChildren[s.parent] == 0 {
				leaves[s.parent] = true
			}
		}
	}
	self = make(map[string]time.Duration, len(shares))
	for name, ns := range shares {
		self[name] = time.Duration(ns)
	}
	return self, time.Duration(unattr), time.Duration(rs.end - rs.start)
}

// under reports whether span id lies in the subtree rooted at root.
func (r *recorder) under(id, root int) bool {
	for ; id >= 0; id = r.spans[id].parent {
		if id == root {
			return true
		}
	}
	return false
}

// durations returns the durations of every closed span named name.
func (r *recorder) durations(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, time.Duration(s.end-s.start))
		}
	}
	return out
}
