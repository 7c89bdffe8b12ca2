package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"github.com/eda-go/adifo"
	"github.com/eda-go/adifo/internal/experiments"
	"github.com/eda-go/adifo/internal/gen"
)

func TestCommands(t *testing.T) {
	cases := []struct{ cmd, circuit string }{
		{"stats", "c17"},
		{"faults", "c17"},
		{"adi", "lion"},
		{"order", "lion"},
	}
	for _, c := range cases {
		o := options{circuit: c.circuit, exhaustive: true, n: 100, seed: 1, order: "dynm", limit: 5}
		if err := run(c.cmd, o); err != nil {
			t.Fatalf("%s %s: %v", c.cmd, c.circuit, err)
		}
	}
}

// TestGradeInProcess drives the grade verb end to end against the
// in-process loopback server: submit, stream, result.
func TestGradeInProcess(t *testing.T) {
	o := options{circuit: "c17", mode: "nodrop", n: 128, seed: 1, limit: 3, quiet: true}
	if err := run("grade", o); err != nil {
		t.Fatalf("grade c17: %v", err)
	}
}

// TestGradeRemote drives the grade verb against one real HTTP server
// (the single -server path).
func TestGradeRemote(t *testing.T) {
	g := adifo.NewLocalGrader(adifo.GraderConfig{})
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	o := options{circuit: "c17", mode: "nodrop", n: 128, seed: 1, limit: 2, quiet: true,
		servers: serverList{srv.URL}}
	if err := run("grade", o); err != nil {
		t.Fatalf("grade -server: %v", err)
	}
}

// TestGradeCluster drives the grade verb end to end across two real
// HTTP backends — the `adifo grade -server A -server B` path — and
// checks the sharded run against an in-process single-engine run.
func TestGradeCluster(t *testing.T) {
	mk := func() *httptest.Server {
		g := adifo.NewLocalGrader(adifo.GraderConfig{})
		srv := httptest.NewServer(g.Handler())
		t.Cleanup(func() {
			srv.Close()
			g.Close()
		})
		return srv
	}
	a, b := mk(), mk()
	o := options{circuit: "c17", mode: "drop", n: 256, seed: 3, limit: 2, quiet: true,
		servers: serverList{a.URL, b.URL}}
	if err := run("grade", o); err != nil {
		t.Fatalf("grade -server A -server B: %v", err)
	}
}

// TestGradeBenchFile checks that a .bench file path is shipped as
// inline netlist text.
func TestGradeBenchFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "toy.bench")
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	o := options{circuit: path, mode: "drop", exhaustive: true, quiet: true}
	if err := run("grade", o); err != nil {
		t.Fatalf("grade %s: %v", path, err)
	}
}

func TestOrderBadName(t *testing.T) {
	o := options{circuit: "lion", exhaustive: true, n: 100, seed: 1, order: "bogus"}
	if err := run("order", o); err == nil {
		t.Fatal("expected error for unknown order")
	}
}

// TestExhaustiveTooWide: -exhaustive on a circuit with more than 20
// inputs is an error in-process, as it is on a server, not a panic.
func TestExhaustiveTooWide(t *testing.T) {
	for _, cmd := range []string{"adi", "order", "gen"} {
		o := options{circuit: "irs420", exhaustive: true, order: "dynm"}
		if err := run(cmd, o); err == nil || !strings.Contains(err.Error(), "20 inputs") {
			t.Errorf("%s -exhaustive on irs420 = %v", cmd, err)
		}
	}
}

// TestGenBadCircuit: gen refuses an unknown circuit.
func TestGenBadCircuit(t *testing.T) {
	o := options{circuit: "no-such-circuit", n: 10, seed: 1, order: "dynm", quiet: true}
	if err := run("gen", o); err == nil {
		t.Fatal("expected error for unknown circuit")
	}
}

// TestGenBadOrder: gen refuses an unknown order before any work.
func TestGenBadOrder(t *testing.T) {
	o := options{circuit: "c17", n: 10, seed: 1, order: "bogus", quiet: true}
	if err := run("gen", o); err == nil || !strings.Contains(err.Error(), "unknown order") {
		t.Fatalf("gen -order bogus = %v", err)
	}
}

func TestBadCircuit(t *testing.T) {
	o := options{circuit: "nope", n: 10, seed: 1, order: "dynm"}
	if err := run("stats", o); err != nil {
		// expected
		return
	}
	t.Fatal("expected error for unknown circuit")
}

// TestGradeModes grades in-process in each mode; with -stop the engine
// cuts a nodrop run off after the first block that reaches the
// coverage.
func TestGradeModes(t *testing.T) {
	for _, mode := range []string{"drop", "nodrop", "ndetect"} {
		o := options{circuit: "c17", mode: mode, n: 256, seed: 1, limit: 1, quiet: true}
		if mode == "ndetect" {
			o.ndet = 3
		}
		if err := grade(o, io.Discard); err != nil {
			t.Fatalf("grade -mode %s: %v", mode, err)
		}
	}
	for stop, want := range map[float64]string{
		0:   "vectors     256 (256 simulated)",
		0.5: "vectors     256 (64 simulated)",
	} {
		o := options{circuit: "c17", mode: "nodrop", n: 256, seed: 1, stop: stop, limit: 1, quiet: true}
		var b strings.Builder
		if err := grade(o, &b); err != nil {
			t.Fatalf("grade -stop %v: %v", stop, err)
		}
		if !strings.Contains(b.String(), want) {
			t.Fatalf("grade -stop %v: no %q in\n%s", stop, want, b.String())
		}
	}
}

func TestGradeBadMode(t *testing.T) {
	o := options{circuit: "c17", mode: "bogus", n: 10, seed: 1, quiet: true}
	if err := run("grade", o); err == nil {
		t.Fatal("expected error for unknown mode")
	}
}

// TestGradeBadModeRemote: an unknown mode is refused on one -server
// and across a cluster, as it is in-process.
func TestGradeBadModeRemote(t *testing.T) {
	mk := func() *httptest.Server {
		g := adifo.NewLocalGrader(adifo.GraderConfig{})
		srv := httptest.NewServer(g.Handler())
		t.Cleanup(func() {
			srv.Close()
			g.Close()
		})
		return srv
	}
	a, b := mk(), mk()
	for _, servers := range []serverList{{a.URL}, {a.URL, b.URL}} {
		o := options{circuit: "c17", mode: "bogus", n: 10, seed: 1, quiet: true, servers: servers}
		if err := run("grade", o); err == nil {
			t.Errorf("grade -mode bogus on %d server(s) succeeded", len(servers))
		}
	}
}

// TestGenInProcess drives the gen verb end to end through the public
// library path.
func TestGenInProcess(t *testing.T) {
	o := options{circuit: "c17", n: 96, seed: 7, order: "dynm", fillseed: adifo.DefaultFillSeed, limit: 3, quiet: true}
	if err := run("gen", o); err != nil {
		t.Fatalf("gen c17: %v", err)
	}
}

// TestGenRemoteMatchesLocal drives the gen verb against a real HTTP
// server and checks the printed test rows match the in-process path —
// the CLI-level view of the bit-identical guarantee.
func TestGenRemoteMatchesLocal(t *testing.T) {
	g := adifo.NewLocalGrader(adifo.GraderConfig{})
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	capture := func(o options) string {
		t.Helper()
		f, err := os.CreateTemp(t.TempDir(), "out")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := genTests(o, f); err != nil {
			t.Fatalf("gen: %v", err)
		}
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	o := options{circuit: "c17", n: 96, seed: 7, order: "0dynm", fillseed: 11, quiet: true}
	local := capture(o)
	o.servers = serverList{srv.URL}
	remote := capture(o)

	pick := func(out string) []string {
		var rows []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "timing") || strings.HasPrefix(line, "trace ") {
				continue // server-side wall clock and trace id, remote-only by design
			}
			if strings.HasPrefix(line, "t") || strings.HasPrefix(line, "tests ") {
				rows = append(rows, line)
			}
		}
		return rows
	}
	lr, rr := pick(local), pick(remote)
	if len(lr) == 0 || !reflect.DeepEqual(lr, rr) {
		t.Fatalf("local and remote gen output diverge:\nlocal:\n%s\nremote:\n%s", local, remote)
	}
}

// TestOrderRemote drives the order verb against a real HTTP server.
func TestOrderRemote(t *testing.T) {
	g := adifo.NewLocalGrader(adifo.GraderConfig{})
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	o := options{circuit: "lion", exhaustive: true, order: "dynm", limit: 5, quiet: true,
		servers: serverList{srv.URL}}
	if err := run("order", o); err != nil {
		t.Fatalf("order -server: %v", err)
	}
}

// TestGenRejectsCluster: gen must refuse multiple -server flags with
// an explanation instead of sharding an unshardable workload.
func TestGenRejectsCluster(t *testing.T) {
	o := options{circuit: "c17", n: 16, seed: 1, order: "dynm", quiet: true,
		servers: serverList{"http://a", "http://b"}}
	err := run("gen", o)
	if err == nil || !strings.Contains(err.Error(), "single -server") {
		t.Fatalf("gen with two servers = %v, want single-server error", err)
	}
}

// fakeTerminalServer is a minimal v1 server whose only job ends in
// the given terminal state: it accepts a submit, then streams one
// final status line.
func fakeTerminalServer(t *testing.T, state, errMsg string) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintln(w, `{"id":"j1"}`)
	})
	mux.HandleFunc("GET /v1/jobs/j1/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		json.NewEncoder(w).Encode(adifo.JobStatus{ID: "j1", Kind: adifo.KindGrade, State: state, Error: errMsg})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestGradeCancelledVsFailedExit: a job that ends cancelled and one
// that ends failed must both exit non-zero, with distinct messages —
// a cancelled run is not a crashed one.
func TestGradeCancelledVsFailedExit(t *testing.T) {
	cancelled := fakeTerminalServer(t, adifo.JobCancelled, "")
	failed := fakeTerminalServer(t, adifo.JobFailed, "boom")

	o := options{circuit: "c17", mode: "nodrop", n: 16, seed: 1, quiet: true}
	o.servers = serverList{cancelled.URL}
	errCancelled := run("grade", o)
	if errCancelled == nil {
		t.Fatal("grade of a cancelled job returned success")
	}
	o.servers = serverList{failed.URL}
	errFailed := run("grade", o)
	if errFailed == nil {
		t.Fatal("grade of a failed job returned success")
	}

	if !strings.Contains(errCancelled.Error(), "cancelled") {
		t.Errorf("cancelled message %q does not say cancelled", errCancelled)
	}
	if !strings.Contains(errFailed.Error(), "failed: boom") {
		t.Errorf("failed message %q does not carry the failure", errFailed)
	}
	if errCancelled.Error() == errFailed.Error() {
		t.Errorf("cancelled and failed collapse to one message: %q", errCancelled)
	}
}

// TestTerminalError pins the mapping for all terminal states.
func TestTerminalError(t *testing.T) {
	if err := terminalError("j1", adifo.JobStatus{State: adifo.JobDone}); err != nil {
		t.Fatalf("done: %v", err)
	}
	c := terminalError("j1", adifo.JobStatus{State: adifo.JobCancelled})
	f := terminalError("j1", adifo.JobStatus{State: adifo.JobFailed, Error: "x"})
	if c == nil || f == nil || c.Error() == f.Error() {
		t.Fatalf("cancelled %v and failed %v must be distinct non-nil errors", c, f)
	}
}

// testRow matches one printed test: "t<i> <vector> (for f<target>)".
var testRow = regexp.MustCompile(`^t\d+ +[01]+ \(for f\d+\)$`)

// TestGenStopMatchesPaper: gen -stop 0.9 over the default 10,000
// vectors sizes U the way the paper does, so on irs208 it prints the
// dynm test set of the experiments' own run.
func TestGenStopMatchesPaper(t *testing.T) {
	o := options{circuit: "irs208", n: adifo.DefaultUBudget, seed: adifo.DefaultUSeed, stop: 0.9,
		order: "dynm", fillseed: adifo.DefaultFillSeed}
	var b strings.Builder
	if err := genTests(o, &b); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(b.String(), "\n") {
		if testRow.MatchString(line) {
			got = append(got, line)
		}
	}

	sc, _ := gen.SuiteByName("irs208")
	setup, err := experiments.Prepare(sc)
	if err != nil {
		t.Fatal(err)
	}
	res := experiments.RunCircuit(setup).Runs[adifo.Dynm]
	var want []string
	for i, v := range res.Tests {
		want = append(want, fmt.Sprintf("t%-4d %s (for f%d)", i, v.String(), res.TargetOf[i]))
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("gen -stop 0.9 printed %d tests, the paper run has %d:\n%s", len(got), len(want), b.String())
	}
	if u := fmt.Sprintf("U %d vectors", setup.U.Len()); !strings.Contains(b.String(), u) {
		t.Fatalf("gen -stop 0.9 output lacks %q:\n%s", u, b.String())
	}
}

// TestGenStopRemoteRefused: -stop sizes U in-process only; a server
// refuses it on a gen job as an invalid request.
func TestGenStopRemoteRefused(t *testing.T) {
	g := adifo.NewLocalGrader(adifo.GraderConfig{})
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	o := options{circuit: "c17", n: 96, seed: 7, stop: 0.9, order: "dynm", quiet: true,
		servers: serverList{srv.URL}}
	err := genTests(o, io.Discard)
	var apiErr *adifo.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "invalid_request" {
		t.Fatalf("gen -stop -server = %v, want an invalid_request error", err)
	}
}

func TestReproTable1(t *testing.T) {
	var b strings.Builder
	if err := repro(options{suite: "small", table: 1}, &b); err != nil {
		t.Fatal(err)
	}
	_, want, err := experiments.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != want+"\n" {
		t.Fatalf("repro -table 1 printed:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestReproFigure1(t *testing.T) {
	var b strings.Builder
	if err := repro(options{suite: "small", figure: 1}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "Figure 1: Fault coverage curve for irs420") || strings.Contains(out, "Table") {
		t.Fatalf("repro -figure 1 printed:\n%s", out)
	}
}

// TestReproDefault: with no -table, -figure or -ablation, repro prints
// Tables 1 and 4-7 and Figure 1 in paper order, and no ablation.
func TestReproDefault(t *testing.T) {
	var b strings.Builder
	if err := repro(options{suite: "irs208"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	at := 0
	for _, title := range []string{"Table 1:", "Table 4:", "Table 5:", "Table 6:", "Table 7:", "Figure 1:"} {
		i := strings.Index(out[at:], title)
		if i < 0 {
			t.Fatalf("%q missing or out of order:\n%s", title, out)
		}
		at += i
	}
	if strings.Contains(out, "Ablation") {
		t.Fatalf("ablation printed without -ablation:\n%s", out)
	}
}

// TestReproBadArgs: an unknown suite, table or figure is an error, not
// an empty report.
func TestReproBadArgs(t *testing.T) {
	for _, o := range []options{
		{suite: "bogus"},
		{suite: "small", table: 2},
		{suite: "small", figure: 2},
	} {
		if err := repro(o, io.Discard); err == nil {
			t.Errorf("repro %+v succeeded", o)
		}
	}
}

// TestBenchgenSmallSuite writes the small suite: every file parses and
// is the netlist LoadCircuit builds under the same name.
func TestBenchgenSmallSuite(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := benchgen(options{suite: "small", out: dir}, &b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"irs208", "irs298", "irs420"} {
		data, err := os.ReadFile(filepath.Join(dir, name+".bench"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := adifo.ParseBenchString(name, string(data)); err != nil {
			t.Fatalf("%s.bench does not parse: %v", name, err)
		}
		c, err := adifo.LoadCircuit(name)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != adifo.BenchString(c) {
			t.Fatalf("%s.bench differs from LoadCircuit(%s)", name, name)
		}
		if !strings.Contains(b.String(), name+": ") {
			t.Fatalf("no summary line for %s:\n%s", name, b.String())
		}
	}
}

func TestBenchgenBadSuite(t *testing.T) {
	if err := benchgen(options{suite: "bogus", out: t.TempDir()}, io.Discard); err == nil {
		t.Fatal("benchgen -suite bogus succeeded")
	}
}
