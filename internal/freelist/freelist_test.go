package freelist

import (
	"runtime"
	"sync"
	"testing"
)

// A List hands back what was put, survives collections, and keeps no more
// than GOMAXPROCS values.
func TestListKeepsBoundedValues(t *testing.T) {
	var l List[*int]
	if _, ok := l.Get(); ok {
		t.Fatal("empty list returned a value")
	}
	limit := runtime.GOMAXPROCS(0)
	for i := 0; i < limit+3; i++ {
		l.Put(new(int))
	}
	runtime.GC()
	runtime.GC()
	got := 0
	for {
		if _, ok := l.Get(); !ok {
			break
		}
		got++
	}
	if got != limit {
		t.Fatalf("got %d values back, want %d", got, limit)
	}
}

// Concurrent Gets and Puts never hand one value to two holders: under
// -race, two goroutines holding one value race on it.
func TestListConcurrent(t *testing.T) {
	var l List[*int]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v, ok := l.Get()
				if !ok {
					v = new(int)
				}
				*v++
				l.Put(v)
			}
		}()
	}
	wg.Wait()
}
