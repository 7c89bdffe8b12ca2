// Package journal is a dependency-free write-ahead log of job
// lifecycle records: an append-only sequence of length-prefixed,
// CRC-checksummed JSON payloads across rotated segment files. The job
// engine appends one record when a job is submitted and one when it
// finishes, and replays the log at startup to reconstruct terminal job
// history and re-enqueue work that was queued or running at crash
// time.
//
// Durability model: Append returns only after the record (and every
// record written before it) has been fsynced. Concurrent appenders are
// group-committed — one fsync settles every record written since the
// previous one — so the per-record cost under load is a fraction of a
// disk flush. A crash can lose at most the suffix of records whose
// Append had not yet returned; it can never corrupt the prefix, and
// replay ends a segment cleanly at its first truncated or corrupt
// record.
//
// On-disk format: each segment file starts with an 8-byte magic
// ("ADIWAL1\n") followed by frames of
//
//	uint32 LE payload length | uint32 LE CRC-32 (IEEE) of payload | payload
//
// Open always starts a fresh segment (numbered after the highest
// existing one), so past segments are immutable from the moment a
// process starts. A torn final frame sits at the tail of the segment
// whose process crashed, and segments written by later processes
// follow it: replay reads every segment, each up to its first bad
// frame.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Record types. A job's life is submitted → finished; cancellation
// and failure are finished records with the matching state, so replay
// needs no per-type logic to find terminal jobs. Readers skip any
// other type, such as the "started" record older versions wrote when a
// job began to run.
const (
	TypeSubmitted = "submitted"
	TypeFinished  = "finished"
)

// Record is one journal entry. Spec and Result hold the job's
// wire-level JSON bytes verbatim (see DESIGN.md: replay must serve
// byte-identical results and re-validate specs through the same wire
// path a client submission takes, so the journal records the wire
// encoding, not internal structs).
type Record struct {
	// Type is submitted or finished.
	Type string `json:"type"`
	// Job is the engine job id ("j42").
	Job string `json:"job"`
	// Kind is the job's canonical kind name, set on submitted records.
	Kind string `json:"kind,omitempty"`
	// Tenant and Key are the multi-tenant coordinates: Key is the
	// client-supplied idempotency key, deduplicated per tenant.
	Tenant string `json:"tenant,omitempty"`
	Key    string `json:"key,omitempty"`
	// State is the terminal state of a finished record: done, failed
	// or cancelled.
	State string `json:"state,omitempty"`
	// Error is the failure message of a finished/failed record.
	Error string `json:"error,omitempty"`
	// Trace is the job's distributed-trace id, set on submitted
	// records so a requeued job keeps its trace identity across a
	// restart.
	Trace string `json:"trace,omitempty"`
	// Spec is the submitted JobSpec's wire JSON (submitted records).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Result is the terminal result payload's wire JSON
	// (finished/done records).
	Result json.RawMessage `json:"result,omitempty"`
	// At is the record's wall-clock time in Unix nanoseconds.
	At int64 `json:"at,omitempty"`
}

const (
	// magic opens every segment file; the trailing newline keeps
	// `head -c8` output readable and catches ASCII-mode mangling.
	magic = "ADIWAL1\n"
	// frameHeader is the per-record prefix: length + CRC.
	frameHeader = 8
	// MaxRecordBytes bounds a single record's payload. Reader treats
	// larger lengths as corruption — a torn length prefix must not
	// trigger a multi-gigabyte allocation.
	MaxRecordBytes = 64 << 20
	// DefaultSegmentBytes is the rotation threshold when
	// Options.SegmentBytes is zero.
	DefaultSegmentBytes = 64 << 20
)

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("journal: closed")

// Options tunes a Journal.
type Options struct {
	// SegmentBytes rotates to a new segment once the current one
	// exceeds this size (default DefaultSegmentBytes).
	SegmentBytes int64
}

// Stats is a point-in-time snapshot of a Journal's counters, consumed
// by the service's metric registry as scrape-time functions.
type Stats struct {
	Appends       uint64
	AppendedBytes uint64
	Syncs         uint64
	SyncSeconds   float64
	Rotations     uint64
	Errors        uint64
	// Segment is the index of the segment currently being written.
	Segment int
}

// Journal is an open write-ahead log. Safe for concurrent use.
type Journal struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	size    int64
	seg     int
	err     error // sticky write failure: fail fast, never write a torn log
	closed  bool
	syncing bool
	waiters []chan error

	appends   atomic.Uint64
	appBytes  atomic.Uint64
	syncs     atomic.Uint64
	syncNanos atomic.Int64
	rotations atomic.Uint64
	errs      atomic.Uint64
}

// Open creates dir if needed and starts a new segment after the
// highest existing one. It never writes into old segments: they are
// replay-only history from this moment on.
func Open(dir string, opts Options) (*Journal, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	next := 1
	if n := len(segs); n > 0 {
		next = segs[n-1].index + 1
	}
	j := &Journal{dir: dir, opts: opts, seg: next - 1}
	if err := j.rotateLocked(); err != nil {
		return nil, err
	}
	return j, nil
}

// segmentName renders a segment index as its file name.
func segmentName(index int) string { return fmt.Sprintf("%08d.wal", index) }

type segmentFile struct {
	index int
	path  string
}

// segments lists dir's segment files in index order.
func segments(dir string) ([]segmentFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("journal: %w", err)
	}
	var out []segmentFile
	for _, e := range entries {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "%08d.wal", &idx); err != nil || segmentName(idx) != e.Name() {
			continue
		}
		out = append(out, segmentFile{index: idx, path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].index < out[b].index })
	return out, nil
}

// rotateLocked syncs and closes the current segment (if any) and opens
// the next one. Caller holds j.mu (or is Open, before the journal is
// shared).
func (j *Journal) rotateLocked() error {
	if j.f != nil {
		if err := j.f.Sync(); err != nil {
			j.errs.Add(1)
			return fmt.Errorf("journal: sync %s: %w", j.f.Name(), err)
		}
		if err := j.f.Close(); err != nil {
			j.errs.Add(1)
			return fmt.Errorf("journal: close %s: %w", j.f.Name(), err)
		}
		j.f = nil
		j.rotations.Add(1)
	}
	j.seg++
	path := filepath.Join(j.dir, segmentName(j.seg))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		j.errs.Add(1)
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Write([]byte(magic)); err != nil {
		f.Close()
		j.errs.Add(1)
		return fmt.Errorf("journal: %w", err)
	}
	// Make the new segment's directory entry durable before anything
	// depends on records inside it.
	if d, err := os.Open(j.dir); err == nil {
		d.Sync()
		d.Close()
	}
	j.f = f
	j.size = int64(len(magic))
	return nil
}

// EncodeFrame renders one record as its on-disk frame:
// length | CRC | JSON payload.
//
// Spec and Result are spliced into the payload verbatim rather than
// re-compacted or re-scanned as json.Marshal would: they are megabytes
// of JSON their producer has just written compactly. The caller must
// pass valid JSON. A frame with an invalid payload still gets a valid
// CRC, and replay ends its segment there (ErrTruncated), losing every
// record after it. The service's producers are pinned by tests instead
// of a scan per record: FuzzJobResultEncode holds the grade result
// codec to json.Marshal, and FuzzFinishedRecord and
// TestJournaledPayloadsReadBack read its finished and submitted
// records back through a Reader.
func EncodeFrame(rec Record) ([]byte, error) {
	spec, result, at := rec.Spec, rec.Result, rec.At
	// The fields after Trace are spec, result and at, in that order;
	// the rest of the record is small and goes through json.Marshal.
	rec.Spec, rec.Result, rec.At = nil, nil, 0
	head, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encode record: %w", err)
	}
	frame := make([]byte, frameHeader, frameHeader+len(head)+len(spec)+len(result)+40)
	frame = append(frame, head[:len(head)-1]...) // without the closing brace
	if len(spec) > 0 {
		frame = append(append(frame, `,"spec":`...), spec...)
	}
	if len(result) > 0 {
		frame = append(append(frame, `,"result":`...), result...)
	}
	if at != 0 {
		frame = strconv.AppendInt(append(frame, `,"at":`...), at, 10)
	}
	frame = append(frame, '}')
	payload := frame[frameHeader:]
	if len(payload) > MaxRecordBytes {
		return nil, fmt.Errorf("journal: record payload %d bytes exceeds limit %d", len(payload), MaxRecordBytes)
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return frame, nil
}

// Append writes rec and returns once it is durable (fsynced), batching
// its flush with concurrent appenders. After a write error the journal
// is poisoned: every later Append returns the same error rather than
// risking a log with an interior hole.
func (j *Journal) Append(rec Record) error {
	wait, startFlusher, err := j.write(rec)
	if err != nil {
		return err
	}
	if startFlusher {
		go j.syncLoop()
	}
	return <-wait
}

// write puts rec's frame in the current segment, rotating first if the
// frame would overflow it, queues a waiter for the next fsync and
// returns its channel. startFlusher reports that no flusher is running,
// so the caller must start one.
func (j *Journal) write(rec Record) (wait chan error, startFlusher bool, err error) {
	frame, err := EncodeFrame(rec)
	if err != nil {
		j.errs.Add(1)
		return nil, false, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, false, ErrClosed
	}
	if j.err != nil {
		return nil, false, j.err
	}
	if j.size+int64(len(frame)) > j.opts.SegmentBytes && j.size > int64(len(magic)) {
		if err := j.rotateLocked(); err != nil {
			j.err = err
			return nil, false, err
		}
	}
	if _, err := j.f.Write(frame); err != nil {
		j.err = fmt.Errorf("journal: write: %w", err)
		j.errs.Add(1)
		return nil, false, j.err
	}
	j.size += int64(len(frame))
	j.appends.Add(1)
	j.appBytes.Add(uint64(len(frame)))
	wait = make(chan error, 1)
	j.waiters = append(j.waiters, wait)
	startFlusher = !j.syncing
	j.syncing = true
	return wait, startFlusher, nil
}

// syncLoop is the group-commit flusher: it repeatedly takes the
// current waiter batch, fsyncs once, and settles every waiter in the
// batch. Records appended while an fsync is in flight join the next
// batch — one flusher, at most one fsync outstanding.
func (j *Journal) syncLoop() {
	for b := j.takeBatch(); len(b.waiters) > 0; b = j.takeBatch() {
		j.flush(b)
	}
}

// batch is one group commit: the waiters whose records an fsync of
// segment seg, open as f, makes durable.
type batch struct {
	waiters []chan error
	f       *os.File
	seg     int
}

// takeBatch takes the current waiters and the segment they wait on.
// With no waiter left it stops the flusher and returns an empty batch.
func (j *Journal) takeBatch() batch {
	j.mu.Lock()
	defer j.mu.Unlock()
	b := batch{waiters: j.waiters, f: j.f, seg: j.seg}
	j.waiters = nil
	if len(b.waiters) == 0 {
		j.syncing = false
	}
	return b
}

// flush fsyncs b's segment and settles b's waiters. A rotation may
// have closed the segment since takeBatch. It fsyncs a segment before
// closing it and moves j.seg on only once both succeed, so the batch
// is then durable already, and the closed file is no failure.
func (j *Journal) flush(b batch) {
	start := time.Now()
	err := b.f.Sync()
	j.syncs.Add(1)
	j.syncNanos.Add(int64(time.Since(start)))
	if err != nil {
		j.mu.Lock()
		if errors.Is(err, os.ErrClosed) && j.seg != b.seg {
			err = nil
		} else {
			err = fmt.Errorf("journal: sync: %w", err)
			j.errs.Add(1)
			if j.err == nil {
				j.err = err
			}
		}
		j.mu.Unlock()
	}
	for _, ch := range b.waiters {
		ch <- err
	}
}

// Close fsyncs and closes the current segment. Later Appends return
// ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// Stats returns a snapshot of the journal's counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	seg := j.seg
	j.mu.Unlock()
	return Stats{
		Appends:       j.appends.Load(),
		AppendedBytes: j.appBytes.Load(),
		Syncs:         j.syncs.Load(),
		SyncSeconds:   time.Duration(j.syncNanos.Load()).Seconds(),
		Rotations:     j.rotations.Load(),
		Errors:        j.errs.Load(),
		Segment:       seg,
	}
}
