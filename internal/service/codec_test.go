package service

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/gen"
	"github.com/eda-go/adifo/internal/obs"
)

// oddNamesBench is a netlist whose signal names hold every byte class
// the encoder hands to encoding/json: HTML-sensitive characters, a
// quote, a backslash, a control byte, non-ASCII and invalid UTF-8.
const oddNamesBench = "INPUT(a<b)\nINPUT(x&y)\nINPUT(q\"t)\nINPUT(back\\slash)\n" +
	"OUTPUT(out\x01)\nOUTPUT(naïve)\n" +
	"g>1 = NAND(a<b, x&y)\nbad\xff = NOR(q\"t, g>1)\n" +
	"out\x01 = AND(g>1, bad\xff, back\\slash)\nnaïve = OR(bad\xff, a<b)\n"

// gradeNow runs spec on s and returns its finished result.
func gradeNow(t *testing.T, s *Service, spec JobSpec) *JobResult {
	t.Helper()
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st := waitTerminal(t, s, id); st.State != StateDone {
		t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
	}
	res, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkCodec requires appendJobResult(r) to equal json.Marshal(r) and
// DecodeJobResult of those bytes to equal json.Unmarshal's value.
// fast says whether the decoder must take its one-pass path, as it
// must on anything whose strings need no escaping.
func checkCodec(t *testing.T, r *JobResult, fast bool) {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := appendJobResult(nil, r)
	if err != nil {
		t.Fatalf("appendJobResult: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("appendJobResult differs from json.Marshal\n got: %.300s\nwant: %.300s", got, want)
	}
	var ref JobResult
	if err := json.Unmarshal(got, &ref); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeJobResult(got)
	if err != nil {
		t.Fatalf("DecodeJobResult: %v", err)
	}
	if !reflect.DeepEqual(dec, &ref) {
		t.Fatalf("DecodeJobResult differs from json.Unmarshal")
	}
	if _, ok := (&resultDecoder{data: got}).decode(); ok != fast {
		t.Fatalf("one-pass decode ok = %v, want %v", ok, fast)
	}
	if !fast {
		return
	}
	dets := 0
	for i, fr := range dec.PerFault {
		if len(fr.Det) != cap(fr.Det) {
			t.Fatalf("fault %d: decoded det has len %d, cap %d", i, len(fr.Det), cap(fr.Det))
		}
		dets += len(fr.Det)
	}
	if n := countDets(got); n != dets {
		t.Fatalf("countDets sized %d detections for %d", n, dets)
	}
	if n := sizeHint(r); n < len(got) {
		t.Fatalf("sizeHint %d is below the %d-byte encoding", n, len(got))
	}
}

// TestJobResultCodecMatchesEncodingJSON runs grade jobs of every mode
// on c17 and on a 2,400-gate netlist, shard jobs, and a netlist with
// hostile names, and holds the codec to encoding/json on each result,
// timing and trace id included.
func TestJobResultCodecMatchesEncodingJSON(t *testing.T) {
	big := circuit.BenchString(gen.Generate(gen.Config{Name: "g2400", Inputs: 214, Gates: 2400, GuardFrac: 0.05}))
	rnd := func(n int) PatternSpec { return PatternSpec{Random: &RandomSpec{N: n, Seed: 5}} }
	cases := []struct {
		name string
		spec JobSpec
		fast bool
	}{
		{"c17/nodrop", JobSpec{Circuit: "c17", Mode: "nodrop", Patterns: rnd(200)}, true},
		{"c17/drop", JobSpec{Circuit: "c17", Mode: "drop", Patterns: rnd(200)}, true},
		{"c17/ndetect", JobSpec{Circuit: "c17", Mode: "ndetect", N: 3, Patterns: rnd(200)}, true},
		{"c17/shard", JobSpec{Circuit: "c17", Mode: "nodrop", Patterns: rnd(200), FaultShard: &FaultShard{Index: 1, Count: 3}}, true},
		{"g2400/nodrop", JobSpec{Bench: big, Mode: "nodrop", Patterns: rnd(256)}, true},
		{"g2400/drop", JobSpec{Bench: big, Mode: "drop", Patterns: rnd(256)}, true},
		{"g2400/ndetect", JobSpec{Bench: big, Mode: "ndetect", N: 4, Patterns: rnd(256)}, true},
		{"g2400/shard", JobSpec{Bench: big, Mode: "ndetect", N: 4, Patterns: rnd(256), FaultShard: &FaultShard{Index: 11, Count: 12}}, true},
		{"odd-names/nodrop", JobSpec{Bench: oddNamesBench, Mode: "nodrop", Patterns: PatternSpec{Exhaustive: true}}, false},
	}
	s := New(Config{Logger: obs.Nop(), SimWorkers: 2})
	defer s.Close()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := gradeNow(t, s, tc.spec)
			if r.Timing == nil || r.TraceID == "" {
				t.Fatalf("result carries no timing or trace id")
			}
			checkCodec(t, r, tc.fast)
		})
	}
}

// TestJobResultCodecEdges covers the values a live job never produces:
// nil against empty slices, floats json writes with an exponent, and
// the failures json.Marshal reports.
func TestJobResultCodecEdges(t *testing.T) {
	checkCodec(t, &JobResult{}, false) // null slices are json.Unmarshal's to read
	checkCodec(t, &JobResult{Ndet: []int{}, PerFault: []FaultResult{}}, true)
	checkCodec(t, &JobResult{
		ID: "j1", Kind: KindGrade, Coverage: 1e-7,
		PerFault: []FaultResult{{F: -1, FirstDet: -1, Det: []int{}}, {Det: []int{math.MinInt64 + 1, math.MaxInt64}}},
		Timing:   &Timing{SubmittedAt: time.Unix(1700000000, 123456789).UTC(), Phases: map[string]float64{"simulate": 1e21}},
	}, false) // 19-digit ints are json.Unmarshal's to read
	for _, f := range []float64{0, -0.5, 1, 1e20, 1e21, 123456789e-15, -2.5e-300, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		checkCodec(t, &JobResult{Coverage: f, Ndet: []int{}, PerFault: []FaultResult{}}, true)
	}

	for _, r := range []*JobResult{
		{Coverage: math.NaN()},
		{Coverage: math.Inf(-1), Timing: &Timing{RunSeconds: math.NaN()}},
		{Timing: &Timing{RunSeconds: math.Inf(1)}},
	} {
		_, want := json.Marshal(r)
		_, got := appendJobResult(nil, r)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("appendJobResult error = %v, json.Marshal error = %v", got, want)
		}
	}
}

// TestDecodeJobResultFallback feeds the decoder inputs outside its
// one-pass shape; each must decode exactly as json.Unmarshal decodes it.
func TestDecodeJobResultFallback(t *testing.T) {
	base := `{"id":"j1","kind":"grade","circuit":"c17","fingerprint":"00ff","mode":"nodrop","faults":2,"total_faults":2,` +
		`"vectors":2,"vectors_used":2,"detected":1,"coverage":0.5,"ndet":[1,0],` +
		`"per_fault":[{"f":0,"name":"n1 sa0","det_count":1,"first_det":0,"det":[0]},{"f":1,"name":"n1 sa1","det_count":0,"first_det":-1}]}`
	inputs := []string{
		base,
		base + "\n",
		" " + base,
		base + "x",
		base[:len(base)-1],
		strings.Replace(base, `"id":"j1"`, `"id":"j1","id":"j2"`, 1),
		strings.Replace(base, `"id":"j1"`, `"ID":"j2"`, 1),
		strings.Replace(base, `"id":"j1"`, `"id":"j\u0031"`, 1),
		strings.Replace(base, `"id":"j1"`, `"extra":[1,{"a":null}]`, 1),
		strings.Replace(base, `"ndet":[1,0]`, `"ndet":null`, 1),
		strings.Replace(base, `"ndet":[1,0]`, `"ndet":[1, 0]`, 1),
		strings.Replace(base, `"ndet":[1,0]`, `"ndet":[1.0,0]`, 1),
		strings.Replace(base, `"ndet":[1,0]`, `"ndet":[1e2,0]`, 1),
		strings.Replace(base, `"ndet":[1,0]`, `"ndet":[01,0]`, 1),
		strings.Replace(base, `"ndet":[1,0]`, `"ndet":[12345678901234567890,0]`, 1),
		strings.Replace(base, `"ndet":[1,0]`, `"ndet":["1",0]`, 1),
		strings.Replace(base, `"coverage":0.5`, `"coverage":1e999`, 1),
		strings.Replace(base, `"coverage":0.5`, `"coverage":-0`, 1),
		strings.Replace(base, `"coverage":0.5`, `"coverage":"0.5"`, 1),
		strings.Replace(base, `"det":[0]`, `"det":[]`, 1),
		strings.Replace(base, `"det":[0]`, `"det":[0],"det":[1]`, 1),
		strings.Replace(base, `"name":"n1 sa0"`, `"name":"n1\tsa0"`, 1),
		strings.Replace(base, `"name":"n1 sa0"`, "\"name\":\"n1 \xffsa0\"", 1),
		strings.Replace(base, `"name":"n1 sa0"`, "\"name\":\"né1\"", 1),
		strings.Replace(base, `"mode":"nodrop"`, `"mode":"nodrop","fault_shard":{"index":1,"count":3}`, 1),
		strings.Replace(base, `"mode":"nodrop"`, `"mode":"nodrop","fault_shard":{"index":"1"}`, 1),
		strings.Replace(base, `"mode":"nodrop"`, `"mode":"nodrop","fault_shard":null`, 1),
		strings.Replace(base, `"mode":"nodrop"`, `"mode":"nodrop","timing":{"submitted_at":"2024-01-02T03:04:05.5Z","phases":{"simulate":0.25}}`, 1),
		strings.Replace(base, `"mode":"nodrop"`, `"mode":"nodrop","timing":{"submitted_at":"yesterday"}`, 1),
		strings.Replace(base, `"mode":"nodrop"`, `"mode":"nodrop","timing":{"phases":{"a}":1,"b\"}":2}}`, 1),
		strings.Replace(base, `"per_fault":[`, `"per_fault":[3,`, 1),
		`{}`, `[]`, `null`, ``, `{"per_fault":[]}`, `{"per_fault":[{}]}`,
	}
	for _, in := range inputs {
		want := new(JobResult)
		werr := json.Unmarshal([]byte(in), want)
		got, gerr := DecodeJobResult([]byte(in))
		switch {
		case werr != nil:
			if gerr == nil || gerr.Error() != werr.Error() {
				t.Errorf("%.80q: error %v, json.Unmarshal says %v", in, gerr, werr)
			}
		case gerr != nil:
			t.Errorf("%.80q: error %v, json.Unmarshal accepts it", in, gerr)
		case !reflect.DeepEqual(got, want):
			t.Errorf("%.80q: decoded %+v, json.Unmarshal gives %+v", in, got, want)
		}
	}
	if _, ok := (&resultDecoder{data: []byte(base + "\n")}).decode(); !ok {
		t.Errorf("the service's own shape missed the one-pass decoder")
	}
}

// TestHandleResultBytes: a live result of every kind is served as
// json.Encoder would write the payload the engine encoded, with a
// Content-Length, and after a restart the journaled bytes come back
// verbatim.
func TestHandleResultBytes(t *testing.T) {
	enc := recordEncodes(t)
	dir := t.TempDir()
	a := mustOpen(t, journalCfg(dir))
	exh := PatternSpec{Exhaustive: true}
	specs := map[string]JobSpec{
		KindGrade:    {Bench: oddNamesBench, Mode: "nodrop", Patterns: exh},
		KindAtpg:     {Kind: KindAtpg, Bench: oddNamesBench, Patterns: exh, Order: &OrderSpec{Kind: "dynm"}},
		KindADIOrder: {Kind: KindADIOrder, Bench: oddNamesBench, Patterns: exh, Order: &OrderSpec{Kind: "decr"}},
	}
	wants := map[string][]byte{}
	for kind, spec := range specs {
		id, err := a.Submit(spec)
		if err != nil {
			t.Fatalf("submit %s: %v", kind, err)
		}
		if st := waitTerminal(t, a, id); st.State != StateDone {
			t.Fatalf("%s job %s ended %s: %s", kind, id, st.State, st.Error)
		}
		orig := enc.of(id)
		if len(orig) != 1 {
			t.Fatalf("%s job encoded %d times, want 1", kind, len(orig))
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(orig[0]); err != nil {
			t.Fatal(err)
		}
		if got := fetchResult(t, a, id); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("live %s result bytes differ from json.Encoder's\n got: %s\nwant: %s", kind, got, want.Bytes())
		}
		wants[id] = want.Bytes()
	}
	a.Close()
	b := mustOpen(t, journalCfg(dir))
	defer b.Close()
	for id, want := range wants {
		if got := fetchResult(t, b, id); !bytes.Equal(got, want) {
			t.Fatalf("replayed result bytes of %s differ\n got: %s\nwant: %s", id, got, want)
		}
	}
}

func BenchmarkJobResultCodec(b *testing.B) {
	big := circuit.BenchString(gen.Generate(gen.Config{Name: "g2400", Inputs: 214, Gates: 2400, GuardFrac: 0.05}))
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	id, err := s.Submit(JobSpec{Bench: big, Mode: "nodrop", Patterns: PatternSpec{Random: &RandomSpec{N: 256, Seed: 1}}})
	if err != nil {
		b.Fatal(err)
	}
	var r *JobResult
	for r == nil {
		time.Sleep(10 * time.Millisecond)
		r, _ = s.Result(id)
	}
	raw, _ := json.Marshal(r)
	b.Run("encode/json", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for b.Loop() {
			json.Marshal(r)
		}
	})
	b.Run("encode/codec", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for b.Loop() {
			encodeResult(r)
		}
	})
	b.Run("decode/json", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for b.Loop() {
			json.Unmarshal(raw, new(JobResult))
		}
	})
	b.Run("decode/codec", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for b.Loop() {
			DecodeJobResult(raw)
		}
	})
}
