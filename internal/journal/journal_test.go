package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func testRecord(i int) Record {
	return Record{
		Type:   TypeSubmitted,
		Job:    "j" + string(rune('0'+i%10)),
		Kind:   "grade",
		Tenant: "acme",
		Key:    "k",
		Spec:   json.RawMessage(`{"circuit":"c17","mode":"nodrop","patterns":{"exhaustive":true}}`),
		At:     int64(1000 + i),
	}
}

func replayAll(t *testing.T, dir string) ([]Record, ReplayResult) {
	t.Helper()
	var recs []Record
	res, err := Replay(dir, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs, res
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Record, 0, 20)
	for i := 0; i < 20; i++ {
		r := testRecord(i)
		if err := j.Append(r); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		want = append(want, r)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, res := replayAll(t, dir)
	if res.Truncated {
		t.Fatal("clean log reported truncated")
	}
	if res.Records != len(want) {
		t.Fatalf("Records = %d, want %d", res.Records, len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed records differ:\ngot  %+v\nwant %+v", got, want)
	}
	st := j.Stats()
	if st.Appends != 20 || st.Errors != 0 {
		t.Fatalf("Stats = %+v, want 20 appends, 0 errors", st)
	}
}

func TestConcurrentAppendDurable(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{}) // real fsync: exercise group commit
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := j.Append(testRecord(i)); err != nil {
				t.Errorf("Append: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, res := replayAll(t, dir)
	if len(recs) != n || res.Truncated {
		t.Fatalf("replayed %d records (truncated=%v), want %d clean", len(recs), res.Truncated, n)
	}
	st := j.Stats()
	if st.Syncs == 0 {
		t.Fatal("no fsyncs recorded")
	}
	if st.Syncs > st.Appends {
		t.Fatalf("more syncs (%d) than appends (%d): group commit not batching", st.Syncs, st.Appends)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 0; i < n; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("got %d segments, want rotation to produce several", len(segs))
	}
	recs, res := replayAll(t, dir)
	if len(recs) != n || res.Truncated {
		t.Fatalf("replayed %d records (truncated=%v) across %d segments, want %d clean",
			len(recs), res.Truncated, res.Segments, n)
	}
	if j.Stats().Rotations == 0 {
		t.Fatal("no rotations counted")
	}
}

// TestRotationDuringFlush orders the group-commit flusher around a
// rotating append: the flusher takes a batch, an append rotates, which
// fsyncs and closes the batch's segment, and only then does the
// flusher fsync. The batch is durable by then, so its waiter gets nil
// and the journal keeps accepting appends.
func TestRotationDuringFlush(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 1}) // rotate before every record but a segment's first
	if err != nil {
		t.Fatal(err)
	}
	// The test is the flusher: it never starts syncLoop.
	first, _, err := j.write(testRecord(0))
	if err != nil {
		t.Fatal(err)
	}
	b := j.takeBatch()
	second, _, err := j.write(testRecord(1))
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Rotations != 1 {
		t.Fatalf("rotations = %d, want 1 between taking the batch and flushing it", st.Rotations)
	}
	j.flush(b)
	if err := <-first; err != nil {
		t.Fatalf("record fsynced by the rotation: %v", err)
	}
	j.flush(j.takeBatch())
	if err := <-second; err != nil {
		t.Fatalf("record in the new segment: %v", err)
	}
	if b := j.takeBatch(); len(b.waiters) != 0 {
		t.Fatalf("%d waiters left", len(b.waiters))
	}

	// The flusher has stopped; Append starts a fresh one.
	if err := j.Append(testRecord(2)); err != nil {
		t.Fatalf("append after the rotation: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if recs, res := replayAll(t, dir); len(recs) != 3 || res.Truncated {
		t.Fatalf("replayed %d records (truncated=%v), want 3 clean", len(recs), res.Truncated)
	}
}

func TestReopenStartsNewSegment(t *testing.T) {
	dir := t.TempDir()
	j1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	// No Close: simulate a crash. Reopen must not touch the old
	// segment.
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if j2.Stats().Segment <= j1.Stats().Segment {
		t.Fatalf("reopen segment %d not after crashed segment %d",
			j2.Stats().Segment, j1.Stats().Segment)
	}
	if err := j2.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	recs, _ := replayAll(t, dir)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records across reopen, want 2", len(recs))
	}
}

// TestTornSegmentEndsOnlyItself: a crash leaves a torn frame header at
// the tail of segment 1, and the next process writes segment 2. Replay
// must deliver every record of both segments and report the tear.
func TestTornSegmentEndsOnlyItself(t *testing.T) {
	dir := t.TempDir()
	var want []Record
	j1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		want = append(want, testRecord(i))
		if err := j1.Append(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	j1.Close()
	segs, _ := segments(dir)
	f, err := os.OpenFile(segs[0].path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("xyz")); err != nil { // a frame header cut short
		t.Fatal(err)
	}
	f.Close()
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 5; i++ {
		want = append(want, testRecord(i))
		if err := j2.Append(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	j2.Close()
	recs, res := replayAll(t, dir)
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("replayed %d records, want the %d of both segments", len(recs), len(want))
	}
	if !res.Truncated || res.Segments != 2 {
		t.Fatalf("ReplayResult = %+v, want 2 segments, truncated", res)
	}
}

// TestTruncatedTail chops bytes off the final segment and checks
// replay keeps the whole prefix and stops cleanly.
func TestTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	segs, _ := segments(dir)
	path := segs[len(segs)-1].path
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation point strictly inside the last record's frame
	// must yield exactly the 4-record prefix (removing the whole frame
	// is a clean log, not a torn one).
	frame, _ := EncodeFrame(testRecord(4))
	for cut := 1; cut < len(frame); cut++ {
		if err := os.WriteFile(path, full[:len(full)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, res := replayAll(t, dir)
		if len(recs) != 4 {
			t.Fatalf("cut %d: replayed %d records, want 4", cut, len(recs))
		}
		if !res.Truncated {
			t.Fatalf("cut %d: truncation not reported", cut)
		}
	}
}

// TestCorruptTail flips a payload byte of the last record: the CRC
// must reject it and replay keeps the prefix.
func TestCorruptTail(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	segs, _ := segments(dir)
	path := segs[0].path
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, res := replayAll(t, dir)
	if len(recs) != 2 || !res.Truncated {
		t.Fatalf("replayed %d records (truncated=%v), want 2 truncated", len(recs), res.Truncated)
	}
}

// TestOversizedLengthPrefix writes a frame header claiming a payload
// beyond MaxRecordBytes: the reader must treat it as corruption, not
// attempt the allocation.
func TestOversizedLengthPrefix(t *testing.T) {
	dir := t.TempDir()
	j, _ := Open(dir, Options{})
	j.Append(testRecord(0))
	j.Close()
	segs, _ := segments(dir)
	path := segs[0].path
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MaxRecordBytes+1)
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	f.Write(hdr[:])
	f.Close()
	recs, res := replayAll(t, dir)
	if len(recs) != 1 || !res.Truncated {
		t.Fatalf("replayed %d records (truncated=%v), want 1 truncated", len(recs), res.Truncated)
	}
}

func TestReplayMissingDirIsEmpty(t *testing.T) {
	res, err := Replay(filepath.Join(t.TempDir(), "nope"), func(Record) error {
		t.Fatal("fn called on empty log")
		return nil
	})
	if err != nil || res.Records != 0 {
		t.Fatalf("Replay(missing) = %+v, %v; want empty, nil", res, err)
	}
}

func TestReplayFnErrorPropagates(t *testing.T) {
	dir := t.TempDir()
	j, _ := Open(dir, Options{})
	j.Append(testRecord(0))
	j.Close()
	boom := errors.New("boom")
	_, err := Replay(dir, func(Record) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Replay fn error = %v, want %v", err, boom)
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	j, _ := Open(dir, Options{})
	j.Close()
	if err := j.Append(testRecord(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Append(testRecord(0))
	j.Close()
	recs, _ := replayAll(t, dir)
	if len(recs) != 1 {
		t.Fatalf("replayed %d records with a foreign file present, want 1", len(recs))
	}
}

func TestReaderStopsNotPanics(t *testing.T) {
	// Arbitrary garbage through the frame reader: never panic, always
	// terminate with EOF or ErrTruncated.
	inputs := []string{
		"", "x", strings.Repeat("\x00", 7), strings.Repeat("\xff", 64),
		"\x04\x00\x00\x00\x00\x00\x00\x00abcd",
	}
	for _, in := range inputs {
		r := NewReader(strings.NewReader(in))
		for {
			_, err := r.Next()
			if err == io.EOF || errors.Is(err, ErrTruncated) {
				break
			}
			if err != nil {
				t.Fatalf("input %q: unexpected error %v", in, err)
			}
		}
	}
}

// TestEncodeFrameSplicesRawJSON: Spec and Result are written as they
// are, so a compact payload frames to exactly json.Marshal's bytes.
// One that is not valid JSON is written as it is too, under a valid
// CRC, and replay ends its segment at that frame with ErrTruncated,
// losing every record after it: the failure the producers' own tests
// guard against.
func TestEncodeFrameSplicesRawJSON(t *testing.T) {
	recs := []Record{
		testRecord(1),
		{Type: TypeFinished, Job: "j2", State: "done", Result: json.RawMessage(`{"id":"j2","ndet":[1,2]}`), At: -7},
		{Type: TypeFinished, Job: "j3", State: "failed", Error: "boom <&>"},
		{Type: TypeSubmitted, Job: "j4", Spec: json.RawMessage(`{}`), Result: json.RawMessage(`[1]`)},
	}
	for _, rec := range recs {
		frame, err := EncodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(rec)
		if got := frame[frameHeader:]; string(got) != string(want) {
			t.Errorf("payload %s, json.Marshal gives %s", got, want)
		}
	}
	spaced := Record{Type: TypeSubmitted, Job: "j5", Spec: json.RawMessage(`{ "a" : [1, 2] }`)}
	frame, err := EncodeFrame(spaced)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(frame), `"spec":{ "a" : [1, 2] }`) {
		t.Errorf("spec was not spliced verbatim: %s", frame[frameHeader:])
	}
	for _, bad := range []Record{
		{Type: TypeSubmitted, Job: "j6", Spec: json.RawMessage(`{"a":`)},
		{Type: TypeFinished, Job: "j7", State: "done", Result: json.RawMessage(`{"id":"j7"} trailing`)},
		{Type: TypeFinished, Job: "j8", State: "done", Result: json.RawMessage("\"\xff")},
		{Type: TypeFinished, Job: "j9", State: "done", Result: json.RawMessage(`{"id":"j9"}}`), At: 9},
	} {
		dir := t.TempDir()
		seg := []byte(magic)
		for _, rec := range []Record{testRecord(1), bad, testRecord(2)} {
			frame, err := EncodeFrame(rec)
			if err != nil {
				t.Fatalf("EncodeFrame(%+v): %v", rec, err)
			}
			seg = append(seg, frame...)
		}
		r := NewReader(strings.NewReader(string(seg[len(magic):])))
		if _, err := r.Next(); err != nil {
			t.Fatalf("record before %s: %v", bad.Job, err)
		}
		if _, err := r.Next(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s's frame read as %v, want ErrTruncated", bad.Job, err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, res := replayAll(t, dir)
		if len(recs) != 1 || !res.Truncated {
			t.Fatalf("replay around %s: %d records, truncated %v; want 1, true", bad.Job, len(recs), res.Truncated)
		}
	}
}
