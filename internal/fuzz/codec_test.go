package fuzz_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
)

// envelope is the stored record shape, for the encoding/json oracle.
type envelope struct {
	Type string          `json:"type"`
	Args json.RawMessage `json:"args"`
}

// marshalSequenceJSON writes ts as encoding/json does: each
// transformation's args marshaled, then the envelopes indented. The
// sequence writer must reproduce these bytes.
func marshalSequenceJSON(t testing.TB, ts []fuzz.Transformation) []byte {
	t.Helper()
	envs := make([]envelope, len(ts))
	for i, tr := range ts {
		args, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		envs[i] = envelope{Type: tr.Type(), Args: args}
	}
	out, err := json.MarshalIndent(envs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkSequenceBytes checks the codec on arbitrary bytes: whatever the
// one-pass decoder accepts, encoding/json accepts and decodes to the same
// sequence; whatever decodes at all, the writer writes back as encoding/json
// does.
func checkSequenceBytes(t testing.TB, data []byte) {
	t.Helper()
	if fast, ok := fuzz.DecodeSequenceFast(data); ok {
		want, err := fuzz.UnmarshalSequenceJSON(data)
		if err != nil {
			t.Fatalf("the one-pass decoder accepted %q, which encoding/json rejects: %v", data, err)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("decoders disagree on %q:\none pass: %#v\nencoding/json: %#v", data, fast, want)
		}
	}
	ts, err := fuzz.UnmarshalSequence(data)
	if err != nil {
		return
	}
	got, err := fuzz.MarshalSequence(ts)
	if err != nil {
		t.Fatal(err)
	}
	if want := marshalSequenceJSON(t, ts); !bytes.Equal(got, want) {
		t.Fatalf("sequence writer wrote\n%s\nencoding/json writes\n%s", got, want)
	}
}

// checkReport checks that the report writer writes rep with seq as
// encoding/json writes it, and that the blob decodes back as encoding/json
// decodes it.
func checkReport(t testing.TB, rep service.Report, seq []fuzz.Transformation) {
	t.Helper()
	got, err := service.MarshalReport(rep, seq)
	if err != nil {
		t.Fatal(err)
	}
	rep.Transformations = marshalSequenceJSON(t, seq)
	want, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report writer wrote\n%s\nencoding/json writes\n%s", got, want)
	}
	checkReportBytes(t, got)
}

// checkReportBytes checks that a blob UnmarshalReport accepts decodes as
// encoding/json decodes it.
func checkReportBytes(t testing.TB, blob []byte) {
	t.Helper()
	rep, seq, err := service.UnmarshalReport(blob)
	if err != nil {
		return
	}
	var want service.Report
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("UnmarshalReport accepted %q, which encoding/json rejects: %v", blob, err)
	}
	wantSeq, err := fuzz.UnmarshalSequenceJSON(want.Transformations)
	if err != nil {
		t.Fatalf("UnmarshalReport accepted %q, whose sequence encoding/json rejects: %v", blob, err)
	}
	if !reflect.DeepEqual(rep, want) || !reflect.DeepEqual(seq, wantSeq) {
		t.Fatalf("report decoders disagree on %q:\n%#v %#v\nencoding/json: %#v %#v", blob, rep, seq, want, wantSeq)
	}
}

// freeTextReport has every string member hold what encoding/json escapes:
// HTML characters, a quote, U+2028 and invalid UTF-8.
var freeTextReport = service.Report{
	Case:      "c001/<case>&1",
	Campaign:  `c"001"`,
	Target:    "SwiftShader\u2028",
	Signature: "crash: a > b && c < d \xff\xfe",
	Reference: "calls2\\",
	Seed:      -7,
	Kept:      []int{0, 3, 9},
	Delta:     -2,
	Queries:   41,
}

// TestSequenceCodecMatchesJSON checks the codec against encoding/json on
// what the service stores: the sequences of 200 campaign tests, the
// reduced sequences and report blobs of the campaign's selected cases, and
// reports whose strings all need escaping.
func TestSequenceCodecMatchesJSON(t *testing.T) {
	const tests = 200
	for seed := int64(0); seed < tests; seed++ {
		_, ts := campaignSequence(t, seed)
		data, err := fuzz.MarshalSequence(ts)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalSequenceJSON(t, ts); !bytes.Equal(data, want) {
			t.Fatalf("seed %d: sequence writer wrote\n%s\nencoding/json writes\n%s", seed, data, want)
		}
		if _, ok := fuzz.DecodeSequenceFast(data); !ok {
			t.Fatalf("seed %d: the one-pass decoder rejects the writer's bytes", seed)
		}
		checkSequenceBytes(t, data)
		if seed%20 == 0 {
			checkReport(t, freeTextReport, ts)
		}
	}
	for _, kept := range [][]int{nil, {}} {
		rep := freeTextReport
		rep.Kept = kept
		checkReport(t, rep, nil)
	}

	env := service.Env{Eng: runner.New(2), Reng: new(replay.Engine), Blobs: &service.MemBlobs{}}
	spec := service.CampaignSpec{Tests: tests}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	targets, err := service.ResolveTargets(spec.Targets)
	if err != nil {
		t.Fatal(err)
	}
	refs, donors := corpus.References(), corpus.Donors()
	done := map[int][]service.BugRef{}
	for i := 0; i < tests; i++ {
		if done[i], err = service.FuzzStep(context.Background(), env, spec, targets, refs, donors, i); err != nil {
			t.Fatal(err)
		}
	}
	cases := service.SelectReductions("c001", spec, done)
	if len(cases) < 10 {
		t.Fatalf("only %d cases to reduce", len(cases))
	}
	for _, rc := range cases {
		rec, err := service.ReduceStep(context.Background(), env, "c001", spec, refs, rc)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := env.Blobs.GetBlob(rec.ReportHash)
		if err != nil {
			t.Fatal(err)
		}
		rep, seq, err := service.UnmarshalReport(blob)
		if err != nil {
			t.Fatal(err)
		}
		checkReport(t, rep, seq)
		if got, _ := service.MarshalReport(rep, seq); !bytes.Equal(got, blob) {
			t.Fatalf("%s: report blob does not survive a round trip", rc.Name)
		}
		data, err := fuzz.MarshalSequence(seq)
		if err != nil {
			t.Fatal(err)
		}
		checkSequenceBytes(t, data)
	}
	t.Logf("%d campaign sequences, %d reduced cases", tests, len(cases))
}

// FuzzSequenceCodecMatchesJSON checks the sequence and report codecs
// against encoding/json on arbitrary bytes, read both as a sequence and as
// a report blob: a one-pass decode must equal encoding/json's, and every
// decoded sequence, and a report carrying it with the input as its
// signature, must be written back as encoding/json writes it.
func FuzzSequenceCodecMatchesJSON(f *testing.F) {
	for _, seed := range []int64{0, 7, 13, 42} {
		_, ts := campaignSequence(f, seed)
		data, err := fuzz.MarshalSequence(ts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		blob, err := service.MarshalReport(freeTextReport, ts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSequenceBytes(t, data)
		checkReportBytes(t, data)
		if ts, err := fuzz.UnmarshalSequence(data); err == nil {
			rep := freeTextReport
			rep.Signature = string(data)
			checkReport(t, rep, ts)
		}
	})
}

var (
	seqSink  []fuzz.Transformation
	blobSink []byte
)

// BenchmarkSequenceCodec times the sequence codec per sequence, over the
// sequences of 200 campaign tests (FuzzStep's options, 8 transformations
// and 1.4 KB on average).
func BenchmarkSequenceCodec(b *testing.B) {
	const n = 200
	seqs := make([][]fuzz.Transformation, n)
	blobs := make([][]byte, n)
	for i := range seqs {
		_, seqs[i] = campaignSequence(b, int64(i))
		var err error
		if blobs[i], err = fuzz.MarshalSequence(seqs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ts, err := fuzz.UnmarshalSequence(blobs[i%n])
			if err != nil {
				b.Fatal(err)
			}
			seqSink = ts
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := fuzz.MarshalSequence(seqs[i%n])
			if err != nil {
				b.Fatal(err)
			}
			blobSink = data
		}
	})
}
