package adifo_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/eda-go/adifo"
)

// vectorBits renders a test vector the way the wire does.
func vectorBits(v adifo.Vector) string {
	b := make([]byte, len(v))
	for i, bit := range v {
		if bit != 0 {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// TestRemoteKindsBitIdentical is the acceptance check of the
// multi-kind engine: for two circuits and all six order kinds, a
// remote adi_order job returns exactly the order the in-process
// library derives, and a remote atpg job returns a bit-identical test
// set to the in-process ComputeADI + GenerateTests flow — end to end
// over a real HTTP server.
func TestRemoteKindsBitIdentical(t *testing.T) {
	ctx := context.Background()
	g := adifo.NewLocalGrader(adifo.GraderConfig{})
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	const uSize, uSeed, fillSeed = 96, 7, adifo.DefaultFillSeed

	for _, name := range []string{"c17", "lion"} {
		c, err := adifo.LoadCircuit(name)
		if err != nil {
			t.Fatal(err)
		}
		fl := adifo.Faults(c)
		u := adifo.RandomPatterns(c.NumInputs(), uSize, uSeed)
		ix, err := adifo.ComputeADI(ctx, fl, u)
		if err != nil {
			t.Fatal(err)
		}
		spec := adifo.JobSpec{
			Circuit:  name,
			Patterns: adifo.PatternSpec{Random: &adifo.RandomSpec{N: uSize, Seed: uSeed}},
		}

		for _, kind := range adifo.AllOrders() {
			spec := spec
			spec.Order = &adifo.OrderSpec{Kind: kind.String()}

			// adi_order: remote order == library order, exactly.
			orderer := adifo.NewRemoteOrderer(srv.URL, nil)
			oid, err := orderer.Submit(ctx, spec)
			if err != nil {
				t.Fatalf("%s/%v: order submit: %v", name, kind, err)
			}
			if st, err := orderer.Stream(ctx, oid, nil); err != nil || st.State != adifo.JobDone {
				t.Fatalf("%s/%v: order job ended %v, %v", name, kind, st.State, err)
			}
			ores, err := orderer.Result(ctx, oid)
			if err != nil {
				t.Fatalf("%s/%v: order result: %v", name, kind, err)
			}
			wantPerm := ix.Order(kind)
			if !reflect.DeepEqual(ores.Perm, wantPerm) {
				t.Errorf("%s/%v: remote order diverges from in-process order", name, kind)
			}
			if !reflect.DeepEqual(ores.ADI, ix.ADI) {
				t.Errorf("%s/%v: remote ADI values diverge", name, kind)
			}

			// atpg: remote test set == library test set, bit for bit.
			spec.Gen = &adifo.GenSpec{FillSeed: fillSeed}
			want, err := adifo.GenerateTests(ctx, fl, wantPerm, adifo.WithFillSeed(fillSeed))
			if err != nil {
				t.Fatal(err)
			}
			gen := adifo.NewRemoteGenerator(srv.URL, nil)
			gid, err := gen.Submit(ctx, spec)
			if err != nil {
				t.Fatalf("%s/%v: atpg submit: %v", name, kind, err)
			}
			if st, err := gen.Stream(ctx, gid, nil); err != nil || st.State != adifo.JobDone {
				t.Fatalf("%s/%v: atpg job ended %v, %v", name, kind, st.State, err)
			}
			gres, err := gen.Result(ctx, gid)
			if err != nil {
				t.Fatalf("%s/%v: atpg result: %v", name, kind, err)
			}
			if len(gres.Tests) != len(want.Tests) {
				t.Fatalf("%s/%v: remote generated %d tests, in-process %d",
					name, kind, len(gres.Tests), len(want.Tests))
			}
			for i, v := range want.Tests {
				if gres.Tests[i] != vectorBits(v) {
					t.Fatalf("%s/%v: test %d = %s remote, %s in-process",
						name, kind, i, gres.Tests[i], vectorBits(v))
				}
			}
			if !reflect.DeepEqual(gres.TargetOf, want.TargetOf) ||
				!reflect.DeepEqual(gres.Curve, want.Curve) {
				t.Errorf("%s/%v: targets/curve diverge from in-process run", name, kind)
			}
			if gres.AtpgCalls != want.AtpgCalls || gres.Backtracks != want.Backtracks {
				t.Errorf("%s/%v: effort diverges: remote (%d, %d), in-process (%d, %d)",
					name, kind, gres.AtpgCalls, gres.Backtracks, want.AtpgCalls, want.Backtracks)
			}
			if gres.AVE != want.AVE() || gres.Detected != want.Detected() {
				t.Errorf("%s/%v: AVE/detected diverge", name, kind)
			}
		}
	}
}

// TestRemoteKindProgress: a remote atpg job streams both simulation
// blocks and ATPG targets; the event kinds are labelled.
func TestRemoteKindProgress(t *testing.T) {
	ctx := context.Background()
	g := adifo.NewLocalGrader(adifo.GraderConfig{})
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	// A deep XOR chain: enough faults and blocks that the job is still
	// running when the stream subscribes (c17 finishes before the HTTP
	// round trip).
	var b strings.Builder
	const inputs, chain = 12, 200
	for i := 0; i < inputs; i++ {
		fmt.Fprintf(&b, "INPUT(i%d)\n", i)
	}
	fmt.Fprintf(&b, "OUTPUT(g%d)\n", chain-1)
	fmt.Fprintf(&b, "g0 = XOR(i0, i1)\n")
	for i := 1; i < chain; i++ {
		fmt.Fprintf(&b, "g%d = XOR(g%d, i%d)\n", i, i-1, i%inputs)
	}

	gen := adifo.NewRemoteGenerator(srv.URL, nil)
	id, err := gen.Submit(ctx, adifo.JobSpec{
		Bench:    b.String(),
		Name:     "xor-chain",
		Patterns: adifo.PatternSpec{Random: &adifo.RandomSpec{N: 2048, Seed: 5}},
		Order:    &adifo.OrderSpec{Kind: "dynm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var targetEvents int
	st, err := gen.Stream(ctx, id, func(ev adifo.ProgressEvent) {
		if ev.Kind != adifo.KindAtpg {
			t.Errorf("event kind %q, want %q", ev.Kind, adifo.KindAtpg)
		}
		if ev.Targets > 0 {
			targetEvents++
		}
	})
	if err != nil || st.State != adifo.JobDone {
		t.Fatalf("stream ended %v, %v", st.State, err)
	}
	if st.Kind != adifo.KindAtpg || st.Tests == 0 {
		t.Fatalf("final status kind=%q tests=%d", st.Kind, st.Tests)
	}
	if targetEvents == 0 {
		t.Error("saw no per-target progress events")
	}
}

// TestGraderRejectsOtherKinds: the Grader front ends submit grade jobs
// only; the kind-typed front ends refuse foreign kinds too.
func TestGraderRejectsOtherKinds(t *testing.T) {
	ctx := context.Background()
	g := adifo.NewLocalGrader(adifo.GraderConfig{})
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	spec := adifo.JobSpec{
		Kind:     adifo.KindAtpg,
		Circuit:  "c17",
		Patterns: adifo.PatternSpec{Random: &adifo.RandomSpec{N: 8, Seed: 1}},
		Order:    &adifo.OrderSpec{Kind: "dynm"},
	}
	if _, err := g.Submit(ctx, spec); err == nil {
		t.Error("LocalGrader.Submit accepted an atpg spec")
	}
	if _, err := adifo.NewRemoteGrader(srv.URL, nil).Submit(ctx, spec); err == nil {
		t.Error("RemoteGrader.Submit accepted an atpg spec")
	}
	spec.Kind = adifo.KindGrade
	spec.Mode = "drop"
	spec.Order = nil
	if _, err := adifo.NewRemoteOrderer(srv.URL, nil).Submit(ctx, spec); err == nil {
		t.Error("RemoteOrderer.Submit accepted a grade spec")
	}
	if _, err := adifo.NewRemoteGenerator(srv.URL, nil).Submit(ctx, spec); err == nil {
		t.Error("RemoteGenerator.Submit accepted a grade spec")
	}
}

// TestUnsupportedKindOnTheWire: an unknown kind travels back as the
// typed unsupported_kind envelope and maps onto ErrUnsupportedKind.
func TestUnsupportedKindOnTheWire(t *testing.T) {
	ctx := context.Background()
	g := adifo.NewLocalGrader(adifo.GraderConfig{})
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	// Drive the raw client via a generator whose kind check is
	// bypassed by setting the kind explicitly... the grader front ends
	// all guard, so talk to the wire through the spec's kind field on
	// a matching submitter being impossible — use the grade path with
	// a server restricted to atpg instead.
	restricted := adifo.NewLocalGrader(adifo.GraderConfig{Kinds: []string{adifo.KindAtpg}})
	defer restricted.Close()
	rsrv := httptest.NewServer(restricted.Handler())
	defer rsrv.Close()

	_, err := adifo.NewRemoteGrader(rsrv.URL, nil).Submit(ctx, adifo.JobSpec{
		Circuit:  "c17",
		Mode:     "drop",
		Patterns: adifo.PatternSpec{Random: &adifo.RandomSpec{N: 8, Seed: 1}},
	})
	if !errors.Is(err, adifo.ErrUnsupportedKind) {
		t.Fatalf("grade submit to atpg-only server = %v, want ErrUnsupportedKind", err)
	}
	var apiErr *adifo.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "unsupported_kind" {
		t.Fatalf("error code = %v, want unsupported_kind envelope", err)
	}
}

// TestRemoteFrontEndQueries drives the calls the three remote front
// ends share (Status, Cancel, Stream, Stats and Close) against one
// server, one job of each front end's kind.
func TestRemoteFrontEndQueries(t *testing.T) {
	ctx := context.Background()
	g := adifo.NewLocalGrader(adifo.GraderConfig{})
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	pat := adifo.PatternSpec{Random: &adifo.RandomSpec{N: 64, Seed: 1}}
	order := &adifo.OrderSpec{Kind: "dynm"}
	type frontEnd interface {
		Submit(context.Context, adifo.JobSpec) (string, error)
		Status(context.Context, string) (adifo.JobStatus, error)
		Cancel(context.Context, string) (adifo.JobStatus, error)
		Stream(context.Context, string, func(adifo.ProgressEvent)) (adifo.JobStatus, error)
		Stats(context.Context) (adifo.GraderStats, error)
		Close() error
	}
	for i, tc := range []struct {
		kind string
		fe   frontEnd
		spec adifo.JobSpec
	}{
		{adifo.KindGrade, adifo.NewRemoteGrader(srv.URL, nil), adifo.JobSpec{Circuit: "c17", Mode: "drop", Patterns: pat}},
		{adifo.KindAtpg, adifo.NewRemoteGenerator(srv.URL, nil), adifo.JobSpec{Circuit: "c17", Patterns: pat, Order: order}},
		{adifo.KindADIOrder, adifo.NewRemoteOrderer(srv.URL, nil), adifo.JobSpec{Circuit: "c17", Patterns: pat, Order: order}},
	} {
		id, err := tc.fe.Submit(ctx, tc.spec)
		if err != nil {
			t.Fatalf("%s: submit: %v", tc.kind, err)
		}
		st, err := tc.fe.Stream(ctx, id, nil)
		if err != nil || st.State != adifo.JobDone || st.Kind != tc.kind {
			t.Fatalf("%s: stream ended %+v, %v", tc.kind, st, err)
		}
		if st, err := tc.fe.Status(ctx, id); err != nil || st.ID != id || st.State != adifo.JobDone {
			t.Errorf("%s: status %+v, %v", tc.kind, st, err)
		}
		if _, err := tc.fe.Cancel(ctx, id); !errors.Is(err, adifo.ErrJobFinished) {
			t.Errorf("%s: cancel of a finished job: %v, want ErrJobFinished", tc.kind, err)
		}
		if _, err := tc.fe.Status(ctx, "j999"); !errors.Is(err, adifo.ErrJobNotFound) {
			t.Errorf("%s: status of an unknown job: %v, want ErrJobNotFound", tc.kind, err)
		}
		stats, err := tc.fe.Stats(ctx)
		if err != nil || stats.JobsSubmitted != uint64(i+1) || stats.JobsDone != uint64(i+1) {
			t.Errorf("%s: stats %+v, %v; want %d submitted and done", tc.kind, stats, err, i+1)
		}
		if err := tc.fe.Close(); err != nil {
			t.Errorf("%s: close: %v", tc.kind, err)
		}
	}
}
