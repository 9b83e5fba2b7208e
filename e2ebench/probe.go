package main

import (
	"crypto/sha256"
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// The host this benchmark was sized on is a 2-vCPU VM whose CPU speed
// drifts with its neighbours' load: over twenty minutes every workload's
// wall and CPU time moved together by up to 30%, at a constant CPU/wall
// ratio, while the work done (allocation, records) stayed the same. So the
// end-to-end times are reported at a reference host speed: each sample is
// bracketed by hostProbe, a fixed piece of work that uses nothing of
// spirvfuzz, and a run's times are scaled by probeRef over the median probe
// time of the run. A change to the program moves the times and not the
// probe; a change of the host's speed moves both.

// probeRef is hostProbe's time on the reference host: a run whose probes
// take probeRef reports its times as measured.
const probeRef = 40 * time.Millisecond

// probeNodes sizes hostProbe.
const probeNodes = 60000

// probeNode is one allocation of hostProbe's linked list.
type probeNode struct {
	key  uint64
	next *probeNode
	data []byte
}

// probeSink keeps hostProbe's result alive.
var probeSink byte

// hostProbe times a fixed piece of work like the one a campaign spends its
// CPU on: small pointer-linked allocations (and the garbage collection they
// cause), map inserts, a sort, and hashing while walking the list. It
// collects the heap first, so it never pays for the program's garbage.
func hostProbe() time.Duration {
	runtime.GC()
	start := time.Now()
	rng := rand.New(rand.NewSource(1))
	var head *probeNode
	m := make(map[uint64]*probeNode)
	keys := make([]uint64, 0, probeNodes)
	for i := 0; i < probeNodes; i++ {
		n := &probeNode{key: rng.Uint64(), next: head, data: make([]byte, 16+rng.Intn(112))}
		head = n
		m[n.key%16384] = n
		keys = append(keys, n.key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var sum [sha256.Size]byte
	for n := head; n != nil; n = n.next {
		n.data[0] ^= sum[0]
		sum = sha256.Sum256(n.data)
	}
	probeSink = sum[0] ^ byte(len(m)) ^ byte(keys[0])
	return time.Since(start)
}

// hostScale is the factor that brings times measured next to probes to the
// reference host speed.
func hostScale(probes []float64) float64 {
	return probeRef.Seconds() / median(probes)
}
