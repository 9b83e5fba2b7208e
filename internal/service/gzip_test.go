package service

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// jsonBody returns a deterministic JSON array of at least n bytes that
// compresses about as well as the cluster's sync bodies: records drawn from
// a small vocabulary by a seeded generator.
func jsonBody(n int, seed int64) []byte {
	words := []string{"OpLoad", "OpStore", "OpBranch", "transformation", "fresh_id", "block", "%12", "%907", "result_type", "uniform"}
	rng := rand.New(rand.NewSource(seed))
	type record struct {
		Kind string   `json:"kind"`
		IDs  []int    `json:"ids"`
		Args []string `json:"args"`
	}
	data := []byte("[")
	for len(data) < n {
		r := record{Kind: words[rng.Intn(len(words))]}
		for i := rng.Intn(6); i >= 0; i-- {
			r.IDs = append(r.IDs, rng.Intn(4096))
			r.Args = append(r.Args, words[rng.Intn(len(words))])
		}
		if len(data) > 1 {
			data = append(data, ',')
		}
		rec, err := json.Marshal(r)
		if err != nil {
			panic(err)
		}
		data = append(data, rec...)
	}
	return append(data, ']')
}

// freshGzip is the reference encoding: a coder built for this one body, at
// the level WriteGzip uses.
func freshGzip(t *testing.T, data []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// failingSink accepts n bytes, then fails every write.
type failingSink struct{ n int }

func (s *failingSink) Write(p []byte) (int, error) {
	if len(p) > s.n {
		k := s.n
		s.n = 0
		return k, errors.New("sink failed")
	}
	s.n -= len(p)
	return len(p), nil
}

// gunzip decodes body through the pool, all members of it.
func gunzip(body []byte) ([]byte, error) {
	zr, err := OpenGzipReader(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer zr.Release()
	return io.ReadAll(zr)
}

// TestGzipCodecReuse pins the pooled codec to fresh coders: every pooled
// encode, from the 512-byte floor to 4 MiB and after each way a pooled
// coder can be left dirty — a writer whose sink failed mid-body, decoders
// that hit a truncated, a corrupt or a multistream body, one switched to
// single-stream — must be byte-identical to gzip.NewWriter's, and every
// pooled decode must give back the body. The checks run in concurrent
// subtests, so a -race run also covers the pools' handoffs.
func TestGzipCodecReuse(t *testing.T) {
	var bodies [][]byte
	for i, n := range []int{512, 4 << 10, 20 << 10, 256 << 10, 4 << 20} {
		bodies = append(bodies, jsonBody(n, int64(i))[:n])
	}
	probe := jsonBody(20<<10, 99)
	for g := 0; g < 2; g++ {
		t.Run(fmt.Sprintf("g%d", g), func(t *testing.T) {
			t.Parallel()
			// roundTrip encodes data through the pool and checks the bytes
			// against a fresh coder's and the pooled decode against data.
			roundTrip := func(after string, data []byte) {
				t.Helper()
				var b bytes.Buffer
				if err := WriteGzip(&b, data); err != nil {
					t.Fatalf("after %s: encode: %v", after, err)
				}
				if !bytes.Equal(b.Bytes(), freshGzip(t, data)) {
					t.Fatalf("after %s: pooled encode of %d bytes differs from a fresh writer's", after, len(data))
				}
				got, err := gunzip(b.Bytes())
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("after %s: pooled decode of %d bytes: err %v, equal %v", after, len(data), err, bytes.Equal(got, data))
				}
			}

			for _, body := range bodies {
				roundTrip(fmt.Sprintf("a %d-byte body", len(body)), body)
			}

			if err := WriteGzip(&failingSink{n: 1000}, bodies[3]); err == nil {
				t.Fatal("encode into a failing sink succeeded")
			}
			roundTrip("a failed sink", probe)

			valid := freshGzip(t, probe)
			if _, err := gunzip(valid[:len(valid)/2]); err == nil {
				t.Fatal("truncated body decoded")
			}
			roundTrip("a truncated body", probe)
			if _, err := gunzip(valid[:5]); err == nil {
				t.Fatal("body truncated inside the header decoded")
			}
			roundTrip("a truncated header", probe)

			corrupt := bytes.Clone(valid)
			corrupt[len(corrupt)-6] ^= 0xff // CRC-32 of the member
			if _, err := gunzip(corrupt); err == nil {
				t.Fatal("body with a bad checksum decoded")
			}
			corrupt = bytes.Clone(valid)
			corrupt[10] = 0xff // reserved deflate block type
			if _, err := gunzip(corrupt); err == nil {
				t.Fatal("corrupt deflate stream decoded")
			}
			roundTrip("a corrupt body", probe)

			first, second := probe[:len(probe)/3], probe[len(probe)/3:]
			multi := append(freshGzip(t, first), freshGzip(t, second)...)
			got, err := gunzip(multi)
			if err != nil || !bytes.Equal(got, probe) {
				t.Fatalf("multistream body: err %v, equal %v", err, bytes.Equal(got, probe))
			}
			roundTrip("a multistream body", probe)

			// A decoder left in single-stream mode is multistream again on
			// its next use.
			zr, err := OpenGzipReader(bytes.NewReader(multi))
			if err != nil {
				t.Fatal(err)
			}
			zr.Multistream(false)
			if got, err := io.ReadAll(zr); err != nil || !bytes.Equal(got, first) {
				t.Fatalf("single-stream read: err %v, equal %v", err, bytes.Equal(got, first))
			}
			zr.Release()
			if got, err := gunzip(multi); err != nil || !bytes.Equal(got, probe) {
				t.Fatalf("multistream body after a single-stream read: err %v, equal %v", err, bytes.Equal(got, probe))
			}
		})
	}
}
