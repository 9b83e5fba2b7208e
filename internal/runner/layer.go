package runner

import (
	"context"
	"sync"
	"sync/atomic"
)

const (
	// shardCount spreads cache contention; must be a power of two.
	shardCount = 16
	// defaultCacheCap bounds the entries of each layer across its shards.
	defaultCacheCap = 1 << 14
)

// layerKey is a cache key that picks its own shard. Every key carries a
// SHA-256 fingerprint, so one of its bytes spreads keys evenly.
type layerKey interface {
	comparable
	shard() byte
}

// slot is one cache slot. done is closed once the fill finished: val holds
// its value, or failed is set and the slot has left the map, so waiters
// retry the lookup.
type slot[V any] struct {
	done   chan struct{}
	val    V
	failed bool
}

type layerShard[K layerKey, V any] struct {
	mu sync.Mutex
	m  map[K]*slot[V]
}

// layer is one sharded, content-addressed cache whose entries are
// deduplicated in flight: when two goroutines ask for the same key at once,
// one fills it and the other waits for the value. Values are deterministic
// functions of their keys, so eviction only costs a re-fill, never changes
// a result.
type layer[K layerKey, V any] struct {
	shards    [shardCount]layerShard[K, V]
	perShard  int
	hits      atomic.Uint64 // lookups answered by a completed or in-flight slot
	evictions atomic.Uint64
}

func (l *layer[K, V]) init() {
	for i := range l.shards {
		l.shards[i].m = make(map[K]*slot[V])
	}
	l.setCap(defaultCacheCap)
}

// setCap bounds the layer to about total entries; total <= 0 sets the
// per-shard cap to 0, which callers read as "caching disabled".
func (l *layer[K, V]) setCap(total int) {
	if total <= 0 {
		l.perShard = 0
		return
	}
	l.perShard = max(total/shardCount, 1)
}

// get returns k's value: from a completed slot, from the in-flight fill it
// waits for, or from fill, which it runs itself after publishing a slot for
// k. A fill that returns an error withdraws its slot, so waiters retry the
// lookup, and get returns that error. ctx bounds only the wait on another
// goroutine's fill.
func (l *layer[K, V]) get(ctx context.Context, k K, fill func() (V, error)) (V, error) {
	s := &l.shards[k.shard()&(shardCount-1)]
	for {
		s.mu.Lock()
		if sl, ok := s.m[k]; ok {
			s.mu.Unlock()
			l.hits.Add(1)
			select {
			case <-sl.done:
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			}
			if sl.failed {
				continue
			}
			return sl.val, nil
		}
		sl := &slot[V]{done: make(chan struct{})}
		if len(s.m) >= l.perShard {
			l.evictOneLocked(s)
		}
		s.m[k] = sl
		s.mu.Unlock()

		v, err := fill()
		if err != nil {
			s.mu.Lock()
			delete(s.m, k)
			s.mu.Unlock()
			sl.failed = true
			close(sl.done)
			return v, err
		}
		sl.val = v
		close(sl.done)
		return v, nil
	}
}

// evictOneLocked discards one completed slot from s (any one). In-flight
// slots are never evicted: their waiters hold the pointer, and a failed
// fill deletes its own key.
func (l *layer[K, V]) evictOneLocked(s *layerShard[K, V]) {
	for k, sl := range s.m {
		select {
		case <-sl.done:
			delete(s.m, k)
			l.evictions.Add(1)
			return
		default:
		}
	}
}

// entries returns the number of slots currently held, in-flight ones included.
func (l *layer[K, V]) entries() int {
	n := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}
