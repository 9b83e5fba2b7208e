// spirvd is the long-running campaign daemon: it owns the full pipeline of
// the paper — fuzz → run → reduce → dedup — as a durable job system
// (internal/service) over a content-addressed store with a write-ahead
// journal (internal/store), and serves campaign state over HTTP/JSON.
//
//	spirvd -store /var/lib/spirvd -addr 127.0.0.1:8741
//
//	POST /campaigns        submit a campaign spec, returns its status
//	GET  /campaigns        list campaign statuses
//	GET  /campaigns/{id}   one campaign's status
//	GET  /buckets          recommended bug reports of finished campaigns
//	GET  /reports/{hash}   one reduced bug report (spirv-dedup-compatible)
//	POST /bisect           bisect a finished campaign's reduced cases over
//	                       their targets' release histories (second signal)
//	GET  /bisect           list bisection-job statuses
//	GET  /bisect/{id}      one bisection job's status
//	GET  /bisect/{id}/result  a finished job's verdicts and signal buckets
//	GET  /metrics          runner/replay/store/job/bisect counters
//
// Every pipeline step is journaled, so a daemon killed at any point — even
// SIGKILL mid-reduction — resumes from the store on restart and finishes
// with buckets bitwise-identical to an uninterrupted run. SIGTERM/SIGINT
// trigger a graceful drain: in-flight jobs finish, pending ones are left to
// the journal.
//
// -role selects the deployment shape (internal/cluster):
//
//	standalone   (default) the single-process daemon described above
//	coordinator  serve the same campaign API, but shard campaigns into
//	             jobs executed by worker nodes; -nodes N additionally
//	             spawns N in-process workers for a single-machine cluster
//	worker       join the coordinator at -join, pull shards, sync blobs
//
// A coordinator serves the identical campaign endpoints, so the client
// subcommand and test harnesses work unchanged against either role, and
// sharded campaigns produce buckets bitwise-identical to standalone runs.
//
// The "client" subcommand (spirvd client <verb>) is a thin JSON client for
// scripting and the end-to-end tests; see client.go.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -pprof
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"spirvfuzz/internal/cluster"
	"spirvfuzz/internal/memostore"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/store"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "client" {
		clientMain(os.Args[2:])
		return
	}
	serverMain(os.Args[1:])
}

func serverMain(args []string) {
	fs := flag.NewFlagSet("spirvd", flag.ExitOnError)
	role := fs.String("role", "standalone", "deployment role: standalone, coordinator, or worker")
	addr := fs.String("addr", "127.0.0.1:0", "listen address (port 0 picks a free port); unused by -role worker")
	storeDir := fs.String("store", "", "store directory (required); created if missing")
	workers := fs.Int("workers", 0, "worker-pool size; 0 means GOMAXPROCS (results are identical for any value)")
	memoDir := fs.String("memo-dir", "", "persistent execution memo store directory; empty disables (results are identical either way)")
	memoMaxMB := fs.Int("memo-max-mb", 256, "memo store size budget in MiB before the oldest segments are evicted")
	portFile := fs.String("portfile", "", "write the bound address to this file once listening (for test harnesses)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a graceful shutdown waits for in-flight jobs")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty disables")
	join := fs.String("join", "", "coordinator URL to join (required for -role worker)")
	node := fs.String("node", "", "worker node name (default host-pid)")
	nodes := fs.Int("nodes", 0, "coordinator only: spawn this many in-process worker nodes")
	leaseTTL := fs.Duration("lease-ttl", 5*time.Second, "coordinator only: shard lease before an unreported shard is re-queued")
	shardTests := fs.Int("shard-tests", cluster.DefaultShardTests, "coordinator only: max tests per fuzz shard")
	shardCases := fs.Int("shard-cases", cluster.DefaultShardCases, "coordinator only: max cases per reduce shard")
	adaptiveShards := fs.Bool("adaptive-shards", true, "coordinator only: size shards from observed service-vs-sync time (bounded by -shard-tests/-shard-cases; results are identical either way)")
	syncFrac := fs.Float64("sync-frac", 0.2, "coordinator only: target fraction of shard wall time spent syncing when -adaptive-shards is on")
	fs.Parse(args)
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "spirvd: -store is required")
		fs.Usage()
		os.Exit(2)
	}

	if *role == "worker" {
		workerMain(workerConfig{
			join: *join, node: *node, storeDir: *storeDir,
			workers: *workers,
			memoDir: *memoDir, memoMaxMB: *memoMaxMB,
		})
		return
	}

	st, err := store.Open(*storeDir)
	fatal(err)
	var handler http.Handler
	var shutdown func(context.Context)
	switch *role {
	case "standalone":
		svc, err := service.New(st, service.Options{
			Workers:      *workers,
			MemoDir:      *memoDir,
			MemoMaxBytes: int64(*memoMaxMB) << 20,
		})
		fatal(err)
		handler = service.NewMux(svc, func() any { return svc.Metrics() })
		shutdown = func(ctx context.Context) {
			if err := svc.Close(ctx); err != nil {
				log.Printf("spirvd: forced drain: %v", err)
			}
		}
	case "coordinator":
		// With -memo-dir the coordinator doubles as the cluster's memo-sync
		// hub: workers pull records they lack and push new ones, so a node
		// that rejoins cold warm-starts from the cluster's history.
		var memo *memostore.Store
		if *memoDir != "" {
			memo, err = memostore.Open(*memoDir, int64(*memoMaxMB)<<20)
			fatal(err)
		}
		co, err := cluster.NewCoordinator(st, cluster.Options{
			ShardTests:     *shardTests,
			ShardCases:     *shardCases,
			LeaseTTL:       *leaseTTL,
			Memo:           memo,
			AdaptiveShards: *adaptiveShards,
			SyncFraction:   *syncFrac,
		})
		fatal(err)
		handler = co.Mux()
		shutdown = func(context.Context) {
			co.Close()
			if memo != nil {
				if err := memo.Close(); err != nil {
					log.Printf("spirvd: memo close: %v", err)
				}
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "spirvd: unknown -role %q (want standalone, coordinator, or worker)\n", *role)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *addr)
	fatal(err)
	if *portFile != "" {
		// Atomic write so a watcher never reads a half-written address.
		tmp := *portFile + ".tmp"
		fatal(os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644))
		fatal(os.Rename(tmp, *portFile))
	}
	log.Printf("spirvd: %s listening on %s, store %s", *role, ln.Addr(), *storeDir)

	if *pprofAddr != "" {
		// The import of net/http/pprof registers its handlers on
		// http.DefaultServeMux; serve that mux on its own listener so
		// profiling never shares a port with the JSON API. Listen before
		// logging so ":0" reports the bound port, not the requested one.
		pln, err := net.Listen("tcp", *pprofAddr)
		fatal(err)
		log.Printf("spirvd: pprof on http://%s/debug/pprof/", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil {
				log.Printf("spirvd: pprof: %v", err)
			}
		}()
	}

	srv := &http.Server{Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("spirvd: %v", err)
		}
	}()

	// -nodes N turns a coordinator into a self-contained single-machine
	// cluster: N in-process worker nodes join over loopback HTTP, each with
	// its own store under <store>/nodes/. They are real protocol clients;
	// only the network is loopback.
	var localWorkers sync.WaitGroup
	if *role == "coordinator" && *nodes > 0 {
		for i := 1; i <= *nodes; i++ {
			name := fmt.Sprintf("local%d", i)
			wopts := cluster.WorkerOptions{
				Node:        name,
				Coordinator: "http://" + ln.Addr().String(),
				StoreDir:    filepath.Join(*storeDir, "nodes", name),
				Workers:     *workers,
			}
			if *memoDir != "" {
				// Per-node memo stores beside the hub's; each node syncs
				// against the coordinator over the wire like a remote would.
				wopts.MemoDir = filepath.Join(*memoDir, "nodes", name)
				wopts.MemoMaxBytes = int64(*memoMaxMB) << 20
			}
			w, err := cluster.NewWorker(wopts)
			fatal(err)
			localWorkers.Add(1)
			go func() {
				defer localWorkers.Done()
				w.Run(ctx)
				w.Close()
			}()
		}
		log.Printf("spirvd: spawned %d in-process worker nodes", *nodes)
	}

	<-ctx.Done()
	stop()
	log.Printf("spirvd: draining (in-flight jobs finish, pending resume from the journal)")
	localWorkers.Wait()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	srv.Shutdown(drainCtx)
	shutdown(drainCtx)
	log.Printf("spirvd: bye")
}

type workerConfig struct {
	join      string
	node      string
	storeDir  string
	workers   int
	memoDir   string
	memoMaxMB int
}

// workerMain runs the worker role: no listener, just a loop pulling shards
// from the coordinator until signaled. A SIGKILLed worker needs no cleanup —
// its leases expire on the coordinator and the shards are re-dispatched.
func workerMain(cfg workerConfig) {
	if cfg.join == "" {
		fmt.Fprintln(os.Stderr, "spirvd: -role worker requires -join")
		os.Exit(2)
	}
	if cfg.node == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		cfg.node = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w, err := cluster.NewWorker(cluster.WorkerOptions{
		Node:         cfg.node,
		Coordinator:  cfg.join,
		StoreDir:     cfg.storeDir,
		Workers:      cfg.workers,
		MemoDir:      cfg.memoDir,
		MemoMaxBytes: int64(cfg.memoMaxMB) << 20,
	})
	fatal(err)
	defer w.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("spirvd: worker %s joining %s, store %s", cfg.node, cfg.join, cfg.storeDir)
	w.Run(ctx)
	log.Printf("spirvd: worker %s bye", cfg.node)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "spirvd:", err)
		os.Exit(1)
	}
}
