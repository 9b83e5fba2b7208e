package store

import (
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
)

// testFS is the operating system's file system behind the store's seam,
// with two test hooks: it fails calls on demand, and it records every
// create, write, truncate and fsync it lets through, in call order, so a
// test can check that order or rebuild what a power cut at any point
// would leave on disk.
type testFS struct {
	osFS

	mu  sync.Mutex
	ops []fsOp
	// Armed faults, matched against a file's base name ("" matches any).
	// They stay armed until cleared.
	writeErr   error  // WriteAt fails with it...
	writeShort bool   // ...after writing half its bytes
	writeFile  string // file WriteAt faults hit
	truncErr   error
	syncErr    error
	syncFile   string // file fsync faults hit
	dirSyncErr error
}

// fsOp is one call testFS let through.
type fsOp struct {
	kind string // "create", "write", "truncate", "sync" or "syncdir"
	name string // base name of the file (the directory for "syncdir")
	off  int64  // write offset, or truncate size
	data []byte // bytes written
}

func matches(pattern, name string) bool { return pattern == "" || pattern == name }

func (t *testFS) record(op fsOp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops = append(t.ops, op)
}

// calls returns the kind and file of every recorded op, in order.
func (t *testFS) calls() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.ops))
	for i, op := range t.ops {
		out[i] = op.kind + " " + op.name
	}
	return out
}

func (t *testFS) arm(f func(t *testFS)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f(t)
}

// clearFaults disarms every fault; call it through arm.
func (t *testFS) clearFaults() {
	t.writeErr, t.writeShort, t.writeFile = nil, false, ""
	t.truncErr, t.syncErr, t.syncFile, t.dirSyncErr = nil, nil, "", nil
}

func (t *testFS) OpenFile(name string, flag int, perm fs.FileMode) (file, error) {
	_, statErr := os.Stat(name)
	f, err := t.osFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&os.O_CREATE != 0 && os.IsNotExist(statErr) {
		t.record(fsOp{kind: "create", name: filepath.Base(name)})
	}
	return &testFile{file: f, fs: t, name: filepath.Base(name)}, nil
}

func (t *testFS) SyncDir(dir string) error {
	t.mu.Lock()
	err := t.dirSyncErr
	t.mu.Unlock()
	if err != nil {
		return err
	}
	t.record(fsOp{kind: "syncdir", name: filepath.Base(dir)})
	return t.osFS.SyncDir(dir)
}

type testFile struct {
	file
	fs   *testFS
	name string
}

func (f *testFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	err, short := f.fs.writeErr, f.fs.writeShort
	if !matches(f.fs.writeFile, f.name) {
		err = nil
	}
	f.fs.mu.Unlock()
	if err != nil {
		if !short {
			return 0, err
		}
		n, _ := f.file.WriteAt(p[:len(p)/2], off)
		return n, err
	}
	n, err := f.file.WriteAt(p, off)
	if err == nil {
		f.fs.record(fsOp{kind: "write", name: f.name, off: off, data: append([]byte(nil), p...)})
	}
	return n, err
}

func (f *testFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	err := f.fs.truncErr
	f.fs.mu.Unlock()
	if err != nil {
		return err
	}
	if err := f.file.Truncate(size); err != nil {
		return err
	}
	f.fs.record(fsOp{kind: "truncate", name: f.name, off: size})
	return nil
}

// Sync is recorded before the real fsync runs: what an fsync makes durable
// is at least every write that finished before it was called.
func (f *testFile) Sync() error {
	f.fs.mu.Lock()
	err := f.fs.syncErr
	if !matches(f.fs.syncFile, f.name) {
		err = nil
	}
	f.fs.mu.Unlock()
	if err != nil {
		return err
	}
	f.fs.record(fsOp{kind: "sync", name: f.name})
	return f.file.Sync()
}

// powerCut writes into dir what a power cut after the first n recorded ops
// would leave of each file: its fsynced prefix plus a prefix of its
// unsynced bytes, whose length keep picks from [0, unsynced]. A file
// whose creation no directory fsync followed is lost whole.
func (t *testFS) powerCut(dir string, n int, keep func(name string, unsynced int) int) error {
	t.mu.Lock()
	ops := t.ops[:n]
	t.mu.Unlock()
	type state struct {
		data    []byte
		synced  int
		durable bool // the directory entry is
	}
	files := map[string]*state{}
	get := func(name string) *state {
		if files[name] == nil {
			files[name] = &state{}
		}
		return files[name]
	}
	for _, op := range ops {
		switch op.kind {
		case "create":
			get(op.name)
		case "syncdir":
			for _, st := range files {
				st.durable = true
			}
		case "write":
			st := get(op.name)
			if end := int(op.off) + len(op.data); end > len(st.data) {
				st.data = append(st.data, make([]byte, end-len(st.data))...)
			}
			copy(st.data[op.off:], op.data)
		case "truncate":
			st := get(op.name)
			st.data = st.data[:min(int(op.off), len(st.data))]
			st.synced = min(st.synced, len(st.data))
		case "sync":
			st := get(op.name)
			st.synced = len(st.data)
		}
	}
	for name, st := range files {
		if !st.durable {
			continue
		}
		n := st.synced + keep(name, len(st.data)-st.synced)
		if err := os.WriteFile(filepath.Join(dir, name), st.data[:n], 0o644); err != nil {
			return err
		}
	}
	return nil
}

// randomKeep keeps a uniformly random prefix of each file's unsynced bytes.
func randomKeep(rng *rand.Rand) func(string, int) int {
	return func(_ string, unsynced int) int { return rng.Intn(unsynced + 1) }
}
