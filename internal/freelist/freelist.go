// Package freelist keeps idle values for reuse. Unlike a sync.Pool, which
// every garbage collection empties, a List keeps its values until they are
// taken: worth it for values that are costly to build and needed again
// within a few MB of allocation, which is how often a busy process
// collects.
package freelist

import (
	"runtime"
	"sync"
)

// List holds up to GOMAXPROCS idle values of type T; a value put beyond
// that is left to the collector. The zero List is empty and ready to use,
// and safe for concurrent use.
type List[T any] struct {
	mu   sync.Mutex
	idle []T
}

// Get takes an idle value, reporting false when there is none.
func (l *List[T]) Get() (T, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var v T
	n := len(l.idle)
	if n == 0 {
		return v, false
	}
	v, l.idle[n-1] = l.idle[n-1], v
	l.idle = l.idle[:n-1]
	return v, true
}

// Put makes v available to a later Get.
func (l *List[T]) Put(v T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.idle) < runtime.GOMAXPROCS(0) {
		l.idle = append(l.idle, v)
	}
}
