package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Sim is a simulated in-process cluster: one coordinator served over a real
// loopback listener plus N worker goroutines, each with its own local store
// under Dir. It is the substrate of the cluster tests, of
// BenchmarkClusterCampaign, and of `spirvd -role coordinator -nodes N`.
// Workers are real protocol clients — everything crosses the HTTP boundary
// exactly as it would between machines; only the network is loopback.
type Sim struct {
	Coordinator *Coordinator
	URL         string

	dir        string
	workersPer int
	worker     func(*WorkerOptions)
	srv        *http.Server
	ln         net.Listener

	mu      sync.Mutex
	nextID  int
	cancels map[string]context.CancelFunc
	wg      sync.WaitGroup
	workers map[string]*Worker
}

// SimConfig parameterizes a simulated cluster beyond the StartSim defaults.
type SimConfig struct {
	// Nodes is the initial worker count.
	Nodes int
	// Dir roots the per-worker store (and memo) directories.
	Dir string
	// WorkersPer sizes each worker's engine pool (0 = GOMAXPROCS).
	WorkersPer int
	// Latency, when > 0, is injected into every worker-protocol request
	// (/cluster/ paths) before it is served — a loopback stand-in for a real
	// network round trip. Campaign-API requests are not delayed, so tests
	// polling for completion stay fast.
	Latency time.Duration
	// Worker, when non-nil, edits each worker's options before it starts
	// (e.g. to tighten the idle backoff).
	Worker func(*WorkerOptions)
}

// StartSim serves co on a loopback listener and spawns n workers against it,
// returning once they have all joined.
func StartSim(co *Coordinator, n int, dir string, workersPer int) (*Sim, error) {
	return StartSimCfg(co, SimConfig{Nodes: n, Dir: dir, WorkersPer: workersPer})
}

// simJoinTimeout bounds how long StartSimCfg waits for its nodes to join.
const simJoinTimeout = 30 * time.Second

// StartSimCfg serves co on a loopback listener per cfg and returns once the
// coordinator has heard from cfg.Nodes nodes, so the first shards are leased
// with every node live. It fails if they have not joined within
// simJoinTimeout.
func StartSimCfg(co *Coordinator, cfg SimConfig) (*Sim, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var handler http.Handler = co.Mux()
	if cfg.Latency > 0 {
		handler = latencyMiddleware(handler, cfg.Latency)
	}
	s := &Sim{
		Coordinator: co,
		URL:         "http://" + ln.Addr().String(),
		dir:         cfg.Dir,
		workersPer:  cfg.WorkersPer,
		worker:      cfg.Worker,
		ln:          ln,
		srv:         &http.Server{Handler: handler},
		cancels:     make(map[string]context.CancelFunc),
		workers:     make(map[string]*Worker),
	}
	go s.srv.Serve(ln)
	for i := 0; i < cfg.Nodes; i++ {
		if _, err := s.AddWorker(); err != nil {
			s.Stop()
			return nil, err
		}
	}
	deadline := time.Now().Add(simJoinTimeout)
	for co.Metrics().Cluster.Nodes < cfg.Nodes {
		if time.Now().After(deadline) {
			s.Stop()
			return nil, fmt.Errorf("cluster: sim nodes did not all join within %v", simJoinTimeout)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return s, nil
}

// latencyMiddleware sleeps d before serving worker-protocol requests,
// simulating wire latency on the shard and sync exchanges without slowing
// the campaign API the tests poll.
func latencyMiddleware(next http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/cluster/") {
			time.Sleep(d)
		}
		next.ServeHTTP(w, r)
	})
}

// AddWorker spawns one more worker node and returns its name. Each worker
// gets a fresh name and store directory, so a worker added after KillWorker
// models a *new* node rejoining the cluster with a cold blob cache.
func (s *Sim) AddWorker() (string, error) {
	s.mu.Lock()
	s.nextID++
	name := fmt.Sprintf("sim%d", s.nextID)
	s.mu.Unlock()
	opts := WorkerOptions{
		Node:        name,
		Coordinator: s.URL,
		StoreDir:    filepath.Join(s.dir, "node-"+name),
		Workers:     s.workersPer,
	}
	// When the coordinator is a memo hub, give every simulated node its own
	// memo store so the sync protocol runs for real (a rejoining node gets a
	// fresh, cold directory and must warm-start over the wire).
	if s.Coordinator.MemoStore() != nil {
		opts.MemoDir = filepath.Join(s.dir, "memo-"+name)
	}
	if s.worker != nil {
		s.worker(&opts)
	}
	w, err := NewWorker(opts)
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	s.cancels[name] = cancel
	s.workers[name] = w
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		w.Run(ctx)
		w.Close()
	}()
	return name, nil
}

// KillWorker cancels a worker's context mid-whatever-it-was-doing — the
// in-process stand-in for SIGKILL. The worker reports nothing; its leased
// shards expire and re-queue on the coordinator.
func (s *Sim) KillWorker(name string) {
	s.mu.Lock()
	cancel := s.cancels[name]
	delete(s.cancels, name)
	delete(s.workers, name)
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Stop kills every worker and closes the listener. The coordinator (and its
// store) stay usable — Stop models the compute layer going away, not the
// control plane.
func (s *Sim) Stop() {
	s.mu.Lock()
	for name, cancel := range s.cancels {
		delete(s.cancels, name)
		delete(s.workers, name)
		cancel()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.srv.Close()
	s.ln.Close()
}
