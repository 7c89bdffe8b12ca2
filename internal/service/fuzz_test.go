package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/eda-go/adifo/internal/journal"
	"github.com/eda-go/adifo/internal/obs"
)

// FuzzJobSpecValidate decodes arbitrary bytes exactly the way the
// submit handler does (strict JSON into a JobSpec) and runs the full
// submit-time validation. The engine sits behind a network boundary:
// whatever a peer sends, validation must never panic, and any spec it
// accepts must resolve to a registered kind.
func FuzzJobSpecValidate(f *testing.F) {
	f.Add([]byte(`{"circuit":"c17","mode":"nodrop","patterns":{"random":{"n":64,"seed":1}}}`))
	f.Add([]byte(`{"kind":"grade","circuit":"c17","mode":"ndetect","n":3,"patterns":{"exhaustive":true}}`))
	f.Add([]byte(`{"kind":"atpg","circuit":"lion","patterns":{"random":{"n":96,"seed":7}},"order":{"kind":"dynm"},"gen":{"fill_seed":9}}`))
	f.Add([]byte(`{"kind":"adi_order","bench":"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n","patterns":{"exhaustive":true},"order":{"kind":"0decr"}}`))
	f.Add([]byte(`{"kind":"grade","circuit":"c17","mode":"drop","patterns":{"vectors":["01011"]},"fault_shard":{"index":1,"count":3}}`))
	f.Add([]byte(`{"kind":"nope"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"circuit":"c17","patterns":{"random":{"n":-1,"seed":0}}}`))

	s := New(Config{Logger: obs.Nop(), SimWorkers: 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		k, err := s.validateSpec(spec)
		if err != nil {
			if k != nil {
				t.Fatalf("validateSpec returned both a kind and %v", err)
			}
			return
		}
		name := NormalizeKind(spec.Kind)
		if jobKinds[name] != k {
			t.Fatalf("accepted spec resolved kind %q to the wrong registry entry", name)
		}
	})
}

// FuzzErrorEnvelope decodes arbitrary bytes as the v1 error envelope
// the way the client does and checks the decoded error behaves: a
// non-empty code yields a printable error that matches exactly the
// sentinel of its errorTable row, if any, and the envelope survives a
// marshal/unmarshal round trip — the property that keeps client-side
// errors.Is working across the wire. Every row seeds the corpus.
func FuzzErrorEnvelope(f *testing.F) {
	for _, r := range errorTable {
		f.Add([]byte(`{"error":{"code":"` + r.code + `","message":"` + r.err.Error() + `"}}`))
	}
	f.Add([]byte(`{"error":{}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var env errorEnvelope
		if json.Unmarshal(data, &env) != nil {
			return
		}
		apiErr := &env.Err
		if apiErr.Code == "" {
			return
		}
		if apiErr.Error() == "" {
			t.Fatal("decoded APIError prints empty")
		}
		for _, r := range errorTable {
			if got, want := errors.Is(apiErr, r.err), apiErr.Code == r.code; got != want {
				t.Fatalf("code %q: errors.Is(%v) = %v, want %v", apiErr.Code, r.err, got, want)
			}
		}
		out, err := json.Marshal(errorEnvelope{Err: *apiErr})
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		var env2 errorEnvelope
		if err := json.Unmarshal(out, &env2); err != nil || env2 != env {
			t.Fatalf("round trip changed envelope: %+v -> %+v (%v)", env, env2, err)
		}
	})
}

// fuzzResult builds a JobResult from fuzz input. shape's bytes choose
// which optional parts exist (kind, trace id, shard, timing, nil or
// empty slices) and supply the numbers, some scaled to 19 digits;
// names supplies every string, '|'-separated and reused in turn.
func fuzzResult(shape []byte, names string, coverage float64) *JobResult {
	next := func() int {
		if len(shape) == 0 {
			return 0
		}
		b := shape[0]
		shape = shape[1:]
		return int(int8(b))
	}
	num := func() int {
		v := next()
		switch next() & 3 {
		case 1:
			v *= 1_000_003
		case 2:
			v <<= 56
		}
		return v
	}
	strs := strings.Split(names, "|")
	k := 0
	str := func() string {
		k++
		return strs[(k-1)%len(strs)]
	}
	ints := func() []int {
		n := next()
		if n < 0 {
			return nil
		}
		out := make([]int, n%6)
		for i := range out {
			out[i] = num()
		}
		return out
	}
	flags := next()
	r := &JobResult{ID: str(), Circuit: str(), Fingerprint: str(), Mode: str(),
		Faults: num(), TotalFaults: num(), Vectors: num(), VectorsUsed: num(), Detected: num(), Coverage: coverage}
	if flags&1 != 0 {
		r.Kind = str()
	}
	if flags&2 != 0 {
		r.TraceID = str()
	}
	if flags&4 != 0 {
		r.FaultShard = &FaultShard{Index: num(), Count: num()}
	}
	if flags&8 != 0 {
		r.Timing = &Timing{SubmittedAt: time.Unix(int64(num()), int64(next())*1e7).UTC(), QueueWaitSeconds: float64(num()) / 64}
		if flags&16 != 0 {
			r.Timing.RunSeconds = coverage
		}
		if flags&32 != 0 {
			r.Timing.Phases = map[string]float64{str(): float64(next()) / 8}
		}
	}
	r.Ndet = ints()
	if flags&64 == 0 {
		r.PerFault = make([]FaultResult, next()&7)
		for i := range r.PerFault {
			r.PerFault[i] = FaultResult{F: num(), Name: str(), DetCount: num(), FirstDet: num(), Det: ints()}
		}
	}
	return r
}

// decodeAgrees requires DecodeJobResult(data) to do what json.Unmarshal
// into a new JobResult does: fail with the same error text, or produce
// a reflect.DeepEqual value.
func decodeAgrees(t *testing.T, data []byte) {
	t.Helper()
	want := new(JobResult)
	werr := json.Unmarshal(data, want)
	got, gerr := DecodeJobResult(data)
	switch {
	case werr != nil:
		if gerr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("DecodeJobResult error %v, json.Unmarshal error %v", gerr, werr)
		}
	case gerr != nil:
		t.Fatalf("DecodeJobResult error %v where json.Unmarshal succeeds", gerr)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("DecodeJobResult value differs from json.Unmarshal's\n got: %+v\nwant: %+v", got, want)
	}
}

// FuzzJobResultEncode holds the encoder to json.Marshal on arbitrary
// results: the same bytes, or the same failure (NaN and infinite
// floats, times outside years 0-9999). The bytes must then decode as
// json.Unmarshal decodes them.
func FuzzJobResultEncode(f *testing.F) {
	f.Add([]byte{0, 10, 0, 22, 0, 64, 0, 64, 0, 5, 0, 3, 1, 0, 2, 0, 3, 0, 2, 4, 1, 7, 0, 1, 0, 2, 0}, "j1|c17|00ff|nodrop|n1 sa0|n2.in1 sa1", 0.25)
	f.Add([]byte{0x3f, 1, 1, 2, 2, 3, 3, 4, 0, 5, 1, 6, 2, 7, 0, 8, 1, 9, 2, 10, 3}, "a<b|x&y|q\"t|back\\slash|\x01ctl|naïve|bad\xff| ", 1e-7)
	f.Add([]byte{0x7f, 0xff, 0xff}, "", math.NaN())
	f.Add([]byte{0x18}, "grade", math.Inf(1))
	f.Add([]byte{0x48, 0x7f, 2, 0, 0}, "t", 0.5)
	f.Fuzz(func(t *testing.T, shape []byte, names string, coverage float64) {
		r := fuzzResult(shape, names, coverage)
		want, werr := json.Marshal(r)
		got, gerr := appendJobResult(nil, r)
		if werr != nil {
			if gerr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("appendJobResult error %v, json.Marshal error %v", gerr, werr)
			}
			return
		}
		if gerr != nil {
			t.Fatalf("appendJobResult error %v where json.Marshal succeeds", gerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("appendJobResult differs from json.Marshal\n got: %s\nwant: %s", got, want)
		}
		decodeAgrees(t, got)
	})
}

// FuzzFinishedRecord takes fuzzResult's results the way the engine
// journals a done job: encodeResult, then a finished record through
// journal.EncodeFrame, read back with journal.NewReader. The record must
// carry the encoded bytes as they were, valid JSON, and DecodeJobResult
// must turn them into the value encoding/json reads from json.Marshal's
// encoding of the result. EncodeFrame splices results unscanned, so
// this is where an encoder that writes invalid JSON into a record fails.
func FuzzFinishedRecord(f *testing.F) {
	f.Add([]byte{0, 10, 0, 22, 0, 64, 0, 64, 0, 5, 0, 3, 1, 0, 2, 0, 3, 0, 2, 4, 1, 7, 0, 1, 0, 2, 0}, "j1|c17|00ff|nodrop|n1 sa0|n2.in1 sa1", 0.25)
	f.Add([]byte{0x3f, 1, 1, 2, 2, 3, 3, 4, 0, 5, 1, 6, 2, 7, 0, 8, 1, 9, 2, 10, 3}, "a<b|x&y|q\"t|back\\slash|\x01ctl|naïve|bad\xff| ", 1e-7)
	f.Add([]byte{0x48, 0x7f, 2, 0, 0}, "t", 0.5)
	f.Add([]byte{0x40, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff}, "", 0.0)
	f.Fuzz(func(t *testing.T, shape []byte, names string, coverage float64) {
		r := fuzzResult(shape, names, coverage)
		raw, err := encodeResult(r)
		if err != nil {
			return // no record is written; FuzzJobResultEncode pins the failure
		}
		frame, err := journal.EncodeFrame(journal.Record{Type: journal.TypeFinished, Job: "j1",
			State: StateDone, Result: raw, At: 1})
		if err != nil {
			t.Fatalf("EncodeFrame: %v", err)
		}
		rec, err := journal.NewReader(bytes.NewReader(frame)).Next()
		if err != nil {
			t.Fatalf("the record does not read back: %v\nresult: %s", err, raw)
		}
		if rec.Type != journal.TypeFinished || rec.Job != "j1" || rec.State != StateDone || rec.At != 1 {
			t.Fatalf("the record reads back as %+v", rec)
		}
		if !bytes.Equal(rec.Result, raw) || !json.Valid(rec.Result) {
			t.Fatalf("the record reads back with result %s, encoded %s", rec.Result, raw)
		}
		got, err := DecodeJobResult(rec.Result)
		if err != nil {
			t.Fatalf("DecodeJobResult: %v", err)
		}
		ref, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want := new(JobResult)
		if err := json.Unmarshal(ref, want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("the record decodes to\n%+v\nwant\n%+v", got, want)
		}
	})
}

// FuzzJobResultDecode holds DecodeJobResult to json.Unmarshal on
// arbitrary bytes; the seeds are real encodings and mutations of them
// that step just outside the one-pass shape.
func FuzzJobResultDecode(f *testing.F) {
	real := `{"id":"j1","kind":"grade","circuit":"c17","fingerprint":"9f2c44b1e0a3d657","mode":"ndetect","faults":2,"total_faults":22,` +
		`"fault_shard":{"index":0,"count":11},"vectors":4,"vectors_used":4,"detected":2,"coverage":1,"ndet":[2,1,0,1],` +
		`"per_fault":[{"f":0,"name":"n1 sa0","det_count":2,"first_det":0,"det":[0,1]},{"f":1,"name":"n22.in1 sa1","det_count":1,"first_det":3,"det":[3]}],` +
		`"timing":{"submitted_at":"2026-01-02T03:04:05.123456789Z","queue_wait_seconds":0.001,"run_seconds":0.5,"phases":{"simulate":0.25}},"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736"}`
	f.Add([]byte(real))
	f.Add([]byte(real + "\n"))
	f.Add([]byte(strings.ReplaceAll(real, ",", ", ")))
	f.Add([]byte(strings.Replace(real, `"det":[3]`, `"det":[3],"DET":[]`, 1)))
	f.Add([]byte(strings.Replace(real, `"n1 sa0"`, `"n1\u0020sa0"`, 1)))
	f.Add([]byte(strings.Replace(real, `"ndet":[2,1,0,1]`, `"ndet":null`, 1)))
	f.Add([]byte(strings.Replace(real, `"coverage":1`, `"coverage":1e400`, 1)))
	f.Add([]byte(`{"per_fault":[{"f":9223372036854775808}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"id":`))
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeAgrees(t, data)
	})
}
