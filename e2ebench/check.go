package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"spirvfuzz/internal/service"
	"spirvfuzz/internal/store"
)

// Output checks. A run's served results are reduced to one digest of its
// bucket set and bisect set with the campaign-scoped naming stripped — the
// campaign and job IDs, the campaign prefix of case paths, and the report
// hashes derived from them — so two campaigns of one spec compare on
// substance even when their IDs differ.

// stripCase drops the campaign prefix of a case path ("c001/seed7/T" ->
// "seed7/T").
func stripCase(name string) string {
	if k := strings.IndexByte(name, '/'); k >= 0 {
		return name[k+1:]
	}
	return name
}

// digest is one job's bucket-set and bisect-set digests.
func digest(buckets []service.Bucket, set service.BisectSet) string {
	return digestBuckets(buckets) + "/" + digestBisect(set)
}

// digestBuckets hashes a normalized bucket set.
func digestBuckets(buckets []service.Bucket) string {
	bs := make([]service.Bucket, len(buckets))
	for i, b := range buckets {
		b.Case = stripCase(b.Case)
		b.ReportHash = ""
		bs[i] = b
	}
	return hashJSON(bs)
}

// digestBisect hashes a normalized bisect set.
func digestBisect(set service.BisectSet) string {
	set.Job, set.Campaign = "", ""
	outs := make([]service.BisectOutcome, len(set.Outcomes))
	for i, o := range set.Outcomes {
		o.Case = stripCase(o.Case)
		outs[i] = o
	}
	set.Outcomes = outs
	return hashJSON(set)
}

func hashJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and ints always marshal
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// sortedRecs returns recs ordered by case, the order journalReduced uses.
func sortedRecs(recs []service.ReducedRec) []service.ReducedRec {
	out := append([]service.ReducedRec(nil), recs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Case < out[j].Case })
	return out
}

// sameRecords reports how two sets of reduction records differ, or "" when
// they are identical (same cases, each record field-for-field equal).
func sameRecords(got, want []service.ReducedRec) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d reduced cases, want %d", len(got), len(want))
	}
	byCase := make(map[string]service.ReducedRec, len(want))
	for _, r := range want {
		byCase[r.Case] = r
	}
	for _, r := range got {
		w, ok := byCase[r.Case]
		if !ok {
			return fmt.Sprintf("unexpected case %s", r.Case)
		}
		if !reflect.DeepEqual(r, w) {
			return fmt.Sprintf("case %s: %+v, want %+v", r.Case, r, w)
		}
	}
	return ""
}

// journalReduced reads campaign's reduction records back from the journal of
// a closed store: the service's "reduced" records, or the reductions inside
// a cluster coordinator's merged shard records. Journal order is completion
// order; callers compare by case.
func journalReduced(dir, campaign string) ([]service.ReducedRec, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	byCase := map[string]service.ReducedRec{}
	err = st.Journal().Replay(func(r store.Record) error {
		if r.Campaign != campaign {
			return nil
		}
		switch r.Type {
		case recReduced:
			var rec service.ReducedRec
			if err := json.Unmarshal(r.Data, &rec); err != nil {
				return err
			}
			byCase[rec.Case] = rec
		case "cluster_shard_done":
			var shard struct {
				Reduced []service.ReducedRec `json:"reduced"`
			}
			if err := json.Unmarshal(r.Data, &shard); err != nil {
				return err
			}
			for _, rec := range shard.Reduced {
				byCase[rec.Case] = rec
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("journal %s: %w", dir, err)
	}
	out := make([]service.ReducedRec, 0, len(byCase))
	for _, rec := range byCase {
		out = append(out, rec)
	}
	return sortedRecs(out), nil
}

// medianDelta is the median instruction-count delta of the reduced reports
// (Section 4.2): the mean of the middle two for an even count.
func medianDelta(recs []service.ReducedRec) float64 {
	ds := make([]float64, len(recs))
	for i, r := range recs {
		ds[i] = float64(r.Delta)
	}
	return median(ds)
}
