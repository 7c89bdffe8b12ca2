package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// FuzzJournalRecord drives the frame codec two ways with the same
// input. First the input is treated as an arbitrary frame stream: the
// reader must terminate without panicking, stopping at EOF or the
// first bad frame. Then the input is reinterpreted as a record payload
// (via JSON) and round-tripped through EncodeFrame → Reader, with the
// fuzz bytes appended once more as a corrupt tail: the decoded record
// must equal the encoded one and the reader must stop cleanly right
// after it — the crash-recovery contract in miniature.
func FuzzJournalRecord(f *testing.F) {
	seed := func(rec Record) {
		frame, err := EncodeFrame(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	seed(Record{Type: TypeSubmitted, Job: "j1", Kind: "grade", Tenant: "acme", Key: "k-1",
		Spec: json.RawMessage(`{"circuit":"c17","mode":"drop","patterns":{"exhaustive":true}}`), At: 42})
	seed(Record{Type: "started", Job: "j1", At: 43})
	seed(Record{Type: TypeFinished, Job: "j1", State: "done",
		Result: json.RawMessage(`{"id":"j1","coverage":1}`), At: 44})
	seed(Record{Type: TypeFinished, Job: "j2", State: "failed", Error: "boom"})
	f.Add([]byte{})
	f.Add([]byte("ADIWAL1\n"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		// 1) Arbitrary bytes as a frame stream: must terminate, never
		// panic, and deliver only CRC-verified records.
		r := NewReader(bytes.NewReader(data))
		for i := 0; ; i++ {
			_, err := r.Next()
			if err == io.EOF || errors.Is(err, ErrTruncated) {
				break
			}
			if err != nil {
				t.Fatalf("Next: unexpected error %v", err)
			}
			if i > len(data) {
				t.Fatalf("reader produced more records than input bytes")
			}
		}

		// 2) Round trip: build a record from the fuzz input and check
		// encode → decode identity with a corrupt tail appended.
		// JSON marshalling replaces invalid UTF-8 with U+FFFD, so string
		// fields are sanitized first — the identity below is over what a
		// writer can actually put in a record.
		rec := Record{Type: TypeSubmitted, Job: "j1", Spec: jsonClean(data)}
		if len(data) > 0 {
			rec.Tenant = strings.ToValidUTF8(string(data[:min(len(data), 32)]), "")
			rec.Key = strings.ToValidUTF8(string(data), "")
		}
		frame, err := EncodeFrame(rec)
		if err != nil {
			// Only oversized or unencodable payloads may fail; fuzz
			// inputs are bounded well under MaxRecordBytes, but invalid
			// UTF-8 strings still marshal (escaped), so an error here
			// is a real bug... unless the payload is huge.
			if len(data) < MaxRecordBytes/2 {
				t.Fatalf("EncodeFrame: %v", err)
			}
			return
		}
		stream := append(append([]byte{}, frame...), data...)
		r2 := NewReader(bytes.NewReader(stream))
		got, err := r2.Next()
		if err != nil {
			t.Fatalf("round trip Next: %v", err)
		}
		if !recordsEqual(got, rec) {
			t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, rec)
		}
		// Whatever follows the good record is either more valid frames
		// (possible: data could itself be a valid frame) or a clean
		// stop; drain defensively.
		for {
			_, err := r2.Next()
			if err == io.EOF || errors.Is(err, ErrTruncated) {
				break
			}
			if err != nil {
				t.Fatalf("tail Next: %v", err)
			}
		}
	})
}

// jsonClean returns data as a RawMessage when it is valid JSON, nil
// otherwise — Record.Spec must hold well-formed JSON or re-marshalling
// the record would fail.
func jsonClean(data []byte) json.RawMessage {
	if json.Valid(data) {
		return json.RawMessage(data)
	}
	return nil
}

// recordsEqual compares records up to JSON raw-message re-encoding
// (json.Marshal of a RawMessage compacts it, so byte equality of Spec
// is compared on compacted forms).
func recordsEqual(a, b Record) bool {
	na, nb := a, b
	na.Spec, nb.Spec = compact(a.Spec), compact(b.Spec)
	na.Result, nb.Result = compact(a.Result), compact(b.Result)
	return reflect.DeepEqual(na, nb)
}

func compact(m json.RawMessage) json.RawMessage {
	if len(m) == 0 {
		return nil
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, m); err != nil {
		return m
	}
	return buf.Bytes()
}
