package journal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Reader decodes a stream of journal frames. It is deliberately
// forgiving at the tail: a crash mid-Append leaves a torn final frame
// (short header, short payload, or a payload whose CRC no longer
// matches its header), and Next reports that as ErrTruncated rather
// than an error — the well-formed prefix is the log.
type Reader struct {
	r   *bufio.Reader
	buf []byte
}

// ErrTruncated is returned by Reader.Next at the first frame that is
// torn or corrupt. It marks the end of the trustworthy prefix, not a
// failure of the reader.
var ErrTruncated = fmt.Errorf("journal: truncated or corrupt record")

// NewReader reads frames from r (which must be positioned after the
// segment magic, when reading a segment file).
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Next returns the next record. It returns io.EOF at a clean end of
// stream and ErrTruncated at a torn or corrupt frame; both mean "stop
// reading", only the latter implies a crash tore the tail.
func (d *Reader) Next() (Record, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, ErrTruncated // short header: torn tail
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if n > MaxRecordBytes {
		return Record{}, ErrTruncated
	}
	if cap(d.buf) < int(n) {
		d.buf = make([]byte, n)
	}
	payload := d.buf[:n]
	if _, err := io.ReadFull(d.r, payload); err != nil {
		return Record{}, ErrTruncated
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return Record{}, ErrTruncated
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		// The CRC matched, so these bytes are what was written — a
		// payload that is not exactly one JSON object means a writer
		// bug, not a torn tail; still, replay's contract is to stop
		// cleanly, never to fail startup.
		return Record{}, ErrTruncated
	}
	return rec, nil
}

// ReplayResult summarizes one Replay pass.
type ReplayResult struct {
	// Records is the number of well-formed records delivered to fn.
	Records int
	// Segments is the number of segment files visited.
	Segments int
	// Truncated reports that at least one segment ended at a torn or
	// corrupt record instead of a clean end.
	Truncated bool
}

// Replay scans every segment in dir in order and calls fn for each
// well-formed record. A truncated or corrupt record ends its own
// segment cleanly, without error: the rest of that segment is
// untrustworthy, but every later segment was written by a later
// process, which started a fresh one, so the scan goes on with the
// next segment. An error from fn aborts the scan and is returned. A
// missing directory is an empty log.
func Replay(dir string, fn func(Record) error) (ReplayResult, error) {
	var res ReplayResult
	segs, err := segments(dir)
	if err != nil {
		return res, err
	}
	for _, seg := range segs {
		truncated, err := replaySegment(seg.path, fn, &res)
		if err != nil {
			return res, err
		}
		res.Segments++
		res.Truncated = res.Truncated || truncated
	}
	return res, nil
}

// replaySegment scans one segment file. It reports torn==true when the
// segment ends at a bad frame (including a missing or wrong magic,
// which means the file never finished its header write).
func replaySegment(path string, fn func(Record) error, res *ReplayResult) (torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	var hdr [len(magic)]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || string(hdr[:]) != magic {
		return true, nil
	}
	r := NewReader(f)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return false, nil
		}
		if err != nil { // ErrTruncated
			return true, nil
		}
		if err := fn(rec); err != nil {
			return false, err
		}
		res.Records++
	}
}
