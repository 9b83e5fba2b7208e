package store

// Recorder is the store_test package's handle on testFS: it opens stores
// whose blob log and journal go through one recording seam, and rebuilds
// what a power cut would leave of them.
type Recorder struct{ fs *testFS }

func NewRecorder() *Recorder { return &Recorder{fs: &testFS{}} }

// Open opens a store over the recording seam.
func (r *Recorder) Open(dir string) (*Store, error) { return open(r.fs, dir) }

// Calls returns the kind and file of every op the seam has recorded, in
// call order ("write blobs.log", "sync journal.jsonl", ...).
func (r *Recorder) Calls() []string { return r.fs.calls() }

// PowerCut writes into dir what a power cut after the first n recorded ops
// would leave; see testFS.powerCut.
func (r *Recorder) PowerCut(dir string, n int, keep func(name string, unsynced int) int) error {
	return r.fs.powerCut(dir, n, keep)
}
