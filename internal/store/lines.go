package store

import (
	"bufio"
	"io"
	"os"
)

// maxScanBuf caps ScanLines' read buffer.
const maxScanBuf = 1 << 20

// ScanLines is the torn-tail rule of every append-only line log here (the
// journal and the memo store's segments): it calls fn on each complete
// line of f, in order, with the line's offset and its bytes, newline
// included. A final line with no newline is a write torn by a kill
// mid-append and never reaches fn. If fn returns an error the scan stops
// at that line and returns the error; what a bad line means is the
// caller's policy.
//
// end is the offset just past the last line fn accepted: where a writer
// truncates the file before appending again.
func ScanLines(f *os.File, fn func(off int64, line []byte) error) (end int64, err error) {
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return scanLines(f, info.Size(), fn)
}

// scanLines is ScanLines over the first size bytes of r.
func scanLines(r io.ReaderAt, size int64, fn func(off int64, line []byte) error) (end int64, err error) {
	// Size the buffer to the file, capped: logs are read whole on every
	// open, and most are far smaller than the cap. ReadBytes joins lines
	// longer than the buffer, so the cap bounds only the buffer.
	br := bufio.NewReaderSize(io.NewSectionReader(r, 0, size), int(min(size, maxScanBuf)))
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			return end, nil
		}
		if err != nil {
			return end, err
		}
		if err := fn(end, line); err != nil {
			return end, err
		}
		end += int64(len(line))
	}
}
