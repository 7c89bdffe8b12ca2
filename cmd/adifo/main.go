// Command adifo is the library's command-line tool: circuit
// statistics, fault listing, ADI computation, fault-order inspection,
// fault grading and test generation (in-process or against an adifod
// server) on any circuit, plus the paper's evaluation and benchmark
// suite. Every verb but repro and benchgen is built entirely on the
// public adifo package — the same surface an external Go program
// uses. repro and benchgen import internal/experiments and
// internal/gen: they regenerate the paper's tables and emit its
// synthetic suite, which the facade does not expose.
//
// Usage:
//
//	adifo stats  -circuit irs420
//	adifo faults -circuit c17
//	adifo adi    -circuit lion -exhaustive
//	adifo order  -circuit lion -exhaustive -order dynm
//	adifo order  -server http://localhost:8417 -circuit c17 -order dynm
//	adifo gen    -circuit irs420 -order dynm -stop 0.9
//	adifo gen    -server http://localhost:8417 -circuit my.bench -order 0dynm
//	adifo grade  -circuit c17 -mode drop -n 256
//	adifo grade  -server http://localhost:8417 -circuit my.bench
//	adifo grade  -server http://hostA:8417 -server http://hostB:8417 -circuit irs1238
//	adifo repro  -suite small              # Tables 1 and 4-7, Figure 1
//	adifo repro  -table 5 -ablation
//	adifo benchgen -out ./bench -suite small
//
// Repeating -server grades on a cluster: the fault universe is
// sharded across the servers, each grades its shard against the full
// pattern set, and the merged result is bit-identical to a single-node
// run. Only grade jobs shard: gen and order accept a single -server
// (ATPG and the dynamic orders are sequential over shared state).
//
// U is the requested vector set (-n random vectors or -exhaustive),
// the same set in-process and on a server. -stop c cuts it off after
// the first 64-vector block that reaches fault coverage c, which is
// how the paper sizes U (c = 0.9 over the default 10,000 vectors):
// adi, order and gen cut U in-process, grade sends c to the engine,
// and a server refuses it for remote gen and order.
//
// An interrupt (Ctrl-C) during grade or gen cancels the job — on the
// server (or every cluster backend) when -server is set — and the
// stream terminates with the cancelled status. A job that ends
// cancelled exits non-zero with a distinct message from one that
// failed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"github.com/eda-go/adifo"
	"github.com/eda-go/adifo/internal/experiments"
	"github.com/eda-go/adifo/internal/gen"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: adifo <command> [flags]

commands:
  stats    structural statistics of a circuit
  faults   list the collapsed stuck-at fault set
  adi      compute accidental detection indices
  order    print a fault order (remotely with -server)
  gen      generate an ADI-ordered test set (remotely with -server)
  grade    fault-grade a circuit via the grading service
  repro    regenerate the paper's tables and figure
  benchgen write the synthetic suite as .bench files
  (repro and benchgen use internal/experiments, not the public API)

common flags:
  -circuit ref   embedded name (c17, s27, lion), suite name, or .bench path
  -exhaustive    use all 2^inputs vectors for U (inputs <= 20)
  -n, -seed      random vector count / seed for U
  -stop c        cut U off once fault coverage reaches c (the paper
                 uses 0.9); in-process for adi, order and gen, by the
                 engine for grade; refused by a server for gen and order
  -order k       fault order: orig, incr0, decr, 0decr, dynm, 0dynm
  -limit k       print at most k rows (0 = all)

gen flags:
  -server url    adifod server to generate on (default: in-process)
  -fillseed s    seed for the random fill of unspecified inputs

grade flags:
  -server url    adifod server to grade on (default: in-process);
                 repeat to fault-shard the job across a cluster
  -shards-per-backend k
                 cluster over-partitioning factor: k fault shards per
                 healthy backend feed the work queue (default 4)
  -mode m        nodrop, drop or ndetect
  -ndet k        drop threshold for ndetect mode
  -block-width w simulation block width in patterns: 64, 256 or 512
                 (default 0 = the widest block the job justifies)
  -quiet         suppress per-block progress lines

repro flags (none of -table, -figure, -ablation = Tables 1, 4-7 and Figure 1):
  -suite s       full, small, or one suite circuit name
  -table t       print table t: 1, 4, 5, 6 or 7
  -figure 1      print figure 1 (coverage curves of irs420)
  -ablation      print the design-choice ablations

benchgen flags:
  -out dir       output directory
  -suite s       full, small, or one suite circuit name
`)
	os.Exit(2)
}

// options collects every flag; each verb reads the subset it needs.
type options struct {
	circuit    string
	exhaustive bool
	n          int
	seed       uint64
	stop       float64
	order      string
	limit      int

	servers    serverList
	shardsK    int
	mode       string
	ndet       int
	blockWidth int
	fillseed   uint64
	quiet      bool

	suite    string
	table    int
	figure   int
	ablation bool
	out      string
}

// serverList is the repeatable -server flag: one URL grades remotely,
// several grade on a fault-sharded cluster.
type serverList []string

func (s *serverList) String() string { return strings.Join(*s, ",") }

func (s *serverList) Set(v string) error {
	if v == "" {
		return errors.New("empty server URL")
	}
	*s = append(*s, v)
	return nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var o options
	fs.StringVar(&o.circuit, "circuit", "c17", "circuit reference")
	fs.BoolVar(&o.exhaustive, "exhaustive", false, "use all 2^inputs vectors")
	fs.IntVar(&o.n, "n", adifo.DefaultUBudget, "random vector budget for U")
	fs.Uint64Var(&o.seed, "seed", adifo.DefaultUSeed, "random vector seed")
	fs.Float64Var(&o.stop, "stop", 0, "cut U off once this fraction of faults is detected (0 = never)")
	fs.StringVar(&o.order, "order", "dynm", "fault order to print")
	fs.IntVar(&o.limit, "limit", 0, "print at most this many rows (0 = all)")
	fs.Var(&o.servers, "server", "adifod server URL, repeatable for a cluster (none = grade in-process)")
	fs.IntVar(&o.shardsK, "shards-per-backend", 0, "cluster fault shards per healthy backend (0 = default)")
	fs.StringVar(&o.mode, "mode", "nodrop", "grading mode: nodrop, drop or ndetect")
	fs.IntVar(&o.ndet, "ndet", 0, "drop threshold for ndetect mode")
	fs.IntVar(&o.blockWidth, "block-width", 0, "simulation block width in patterns: 64, 256 or 512 (0 = auto)")
	fs.Uint64Var(&o.fillseed, "fillseed", adifo.DefaultFillSeed, "seed for the ATPG's random fill of unspecified inputs")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress per-block progress lines")
	fs.StringVar(&o.suite, "suite", "full", "circuit suite: full, small, or one circuit name")
	fs.IntVar(&o.table, "table", 0, "table to regenerate: 1, 4, 5, 6 or 7")
	fs.IntVar(&o.figure, "figure", 0, "figure to regenerate: 1")
	fs.BoolVar(&o.ablation, "ablation", false, "run the design-choice ablations")
	fs.StringVar(&o.out, "out", ".", "benchgen output directory")
	fs.Parse(os.Args[2:])

	if err := run(cmd, o); err != nil {
		fmt.Fprintln(os.Stderr, "adifo:", err)
		os.Exit(1)
	}
}

func run(cmd string, o options) error {
	switch cmd {
	case "grade":
		return grade(o, os.Stdout)
	case "gen":
		return genTests(o, os.Stdout)
	case "repro":
		return repro(o, os.Stdout)
	case "benchgen":
		return benchgen(o, os.Stdout)
	case "order":
		if len(o.servers) > 0 {
			return orderRemote(o, os.Stdout)
		}
	}
	c, err := adifo.LoadCircuit(o.circuit)
	if err != nil {
		return err
	}
	ctx := context.Background()
	switch cmd {
	case "stats":
		st := c.ComputeStats()
		fmt.Printf("circuit   %s\n", c.Name)
		fmt.Printf("inputs    %d\n", st.Inputs)
		fmt.Printf("outputs   %d\n", st.Outputs)
		fmt.Printf("gates     %d\n", st.Gates)
		fmt.Printf("levels    %d\n", st.Levels)
		fmt.Printf("lines     %d\n", st.Lines)
		fmt.Printf("max fanin %d, max fanout %d, fanout stems %d\n",
			st.MaxFanin, st.MaxFanout, st.FanoutStem)
		fl := adifo.Faults(c)
		fmt.Printf("faults    %d collapsed (%d uncollapsed)\n", fl.Len(), adifo.AllFaults(c).Len())
		return nil

	case "faults":
		fl := adifo.Faults(c)
		for i, f := range fl.Faults {
			if o.limit > 0 && i >= o.limit {
				fmt.Printf("... (%d more)\n", fl.Len()-i)
				break
			}
			fmt.Printf("f%-4d %s\n", i, f.Name(c))
		}
		return nil

	case "adi", "order":
		fl := adifo.Faults(c)
		u, err := vectorSet(ctx, fl, o)
		if err != nil {
			return err
		}
		ix, err := adifo.ComputeADI(ctx, fl, u)
		if err != nil {
			return err
		}
		mn, mx := ix.MinMax()
		fmt.Printf("U %d vectors; |F_U| = %d of %d faults; ADImin=%d ADImax=%d ratio=%.2f\n",
			u.Len(), ix.NumDetected(), fl.Len(), mn, mx, ix.Ratio())
		if cmd == "adi" {
			for i, f := range fl.Faults {
				if o.limit > 0 && i >= o.limit {
					fmt.Printf("... (%d more)\n", fl.Len()-i)
					break
				}
				fmt.Printf("f%-4d ADI=%-5d |D(f)|=%-5d %s\n", i, ix.ADI[i], ix.Det[i].Count(), f.Name(c))
			}
			return nil
		}
		kind, err := adifo.ParseOrder(o.order)
		if err != nil {
			return err
		}
		return printOrder(os.Stdout, o.limit, kind.String(), ix.Order(kind), ix.ADI, func(fi int) string {
			return fl.Faults[fi].Name(c)
		})
	}
	usage()
	return nil
}

// grade submits the circuit to a grading engine — a running adifod
// when -server is set, otherwise the in-process engine behind the same
// Grader interface — streams per-block progress and prints the result
// summary. An interrupt cancels the job.
func grade(o options, out io.Writer) error {
	var g adifo.Grader
	var where string
	switch len(o.servers) {
	case 0:
		g = adifo.NewLocalGrader(adifo.GraderConfig{})
		where = "in-process engine"
	case 1:
		g = adifo.NewRemoteGrader(o.servers[0], nil)
		where = o.servers[0]
	default:
		cg, err := adifo.NewClusterGrader(o.servers, adifo.ClusterOptions{
			ShardsPerBackend: o.shardsK,
		})
		if err != nil {
			return err
		}
		g = cg
		where = fmt.Sprintf("cluster of %d (%s)", len(o.servers), o.servers.String())
	}
	defer g.Close()

	spec, err := gradeSpec(o)
	if err != nil {
		return err
	}
	id, err := follow(g, spec, where, o.quiet, out, func(ev adifo.ProgressEvent) {
		fmt.Fprintf(out, "block %d/%d: %d vectors, %d detected, %d active\n",
			ev.Block+1, ev.Blocks, ev.VectorsUsed, ev.Detected, ev.Active)
	})
	if err != nil {
		return err
	}
	res, err := g.Result(context.Background(), id)
	if err != nil {
		return err
	}

	if cg, ok := g.(*adifo.ClusterGrader); ok {
		if shards, err := cg.Shards(id); err == nil {
			for _, sh := range shards {
				fmt.Fprintf(out, "shard %d/%d on %s as %s (retries %d)\n",
					sh.Index, sh.Count, sh.Backend, sh.RemoteID, sh.Retries)
			}
		}
	}
	fmt.Fprintf(out, "circuit     %s (fingerprint %s)\n", res.Circuit, res.Fingerprint)
	fmt.Fprintf(out, "mode        %s\n", res.Mode)
	printTiming(out, res.Timing)
	printTrace(out, res.TraceID)
	fmt.Fprintf(out, "vectors     %d (%d simulated)\n", res.Vectors, res.VectorsUsed)
	fmt.Fprintf(out, "faults      %d, detected %d, coverage %.2f%%\n",
		res.Faults, res.Detected, 100*res.Coverage)
	for i, fr := range res.PerFault {
		if o.limit > 0 && i >= o.limit {
			fmt.Fprintf(out, "... (%d more)\n", len(res.PerFault)-i)
			break
		}
		fmt.Fprintf(out, "f%-4d det=%-5d first=%-5d %s\n", fr.F, fr.DetCount, fr.FirstDet, fr.Name)
	}
	return nil
}

// baseSpec builds the circuit and pattern parts of a job spec, shared
// by every remote verb. Precedence matches adifo.LoadCircuit: an
// embedded or suite name wins over a same-named local file, so
// `-circuit c17` always means the embedded benchmark. A non-name
// reference is read as a .bench file and shipped as inline netlist
// text (the server never touches the client's filesystem); anything
// else is passed through for the server to reject.
func baseSpec(o options) adifo.JobSpec {
	var spec adifo.JobSpec
	if data, err := os.ReadFile(o.circuit); err == nil && !adifo.IsNamedCircuit(o.circuit) {
		spec.Bench = string(data)
		spec.Name = o.circuit
	} else {
		spec.Circuit = o.circuit
	}
	if o.exhaustive {
		spec.Patterns.Exhaustive = true
	} else {
		spec.Patterns.Random = &adifo.RandomSpec{N: o.n, Seed: o.seed}
	}
	spec.StopAtCoverage = o.stop
	return spec
}

// gradeSpec builds a grade job spec.
func gradeSpec(o options) (adifo.JobSpec, error) {
	spec := baseSpec(o)
	spec.Mode = o.mode
	spec.N = o.ndet
	spec.BlockWidth = o.blockWidth
	return spec, nil
}

// jobFront is the slice of a job front end (a Grader, a
// RemoteGenerator or a RemoteOrderer) that follow drives.
type jobFront interface {
	Submit(ctx context.Context, spec adifo.JobSpec) (string, error)
	Stream(ctx context.Context, id string, fn func(adifo.ProgressEvent)) (adifo.JobStatus, error)
	Cancel(ctx context.Context, id string) (adifo.JobStatus, error)
}

// follow submits spec to g, prints the submit line and streams the
// job's progress events to progress, unless quiet. Until the stream
// ends, Ctrl-C cancels the job rather than abandoning it, and the
// stream then terminates with the cancelled status. follow returns the
// job's id once the job is done, and terminalError's verdict
// otherwise.
func follow(g jobFront, spec adifo.JobSpec, where string, quiet bool, out io.Writer, progress func(adifo.ProgressEvent)) (string, error) {
	ctx := context.Background()
	id, err := g.Submit(ctx, spec)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(out, "job %s submitted to %s\n", id, where)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	done := make(chan struct{})
	defer func() {
		signal.Stop(sig)
		close(done)
	}()
	go func() {
		select {
		case <-sig:
			// Restore default handling so a second Ctrl-C kills the
			// process even if the cancel request hangs.
			signal.Stop(sig)
			fmt.Fprintf(out, "interrupt: cancelling job %s\n", id)
			if _, err := g.Cancel(context.Background(), id); err != nil &&
				!errors.Is(err, adifo.ErrJobFinished) {
				fmt.Fprintf(out, "cancel failed: %v\n", err)
			}
		case <-done:
		}
	}()

	st, err := g.Stream(ctx, id, func(ev adifo.ProgressEvent) {
		if !quiet {
			progress(ev)
		}
	})
	if err != nil {
		return "", err
	}
	return id, terminalError(id, st)
}

// terminalError maps a job's terminal status to the verb's outcome: a
// done job is success; a cancelled job and a failed job are distinct
// non-zero failures. The distinction matters to callers and scripts —
// a cancelled run was asked to stop, a failed run crashed — so the two
// must never collapse into one message.
func terminalError(id string, st adifo.JobStatus) error {
	switch st.State {
	case adifo.JobDone:
		return nil
	case adifo.JobCancelled:
		return fmt.Errorf("job %s was cancelled before completion", id)
	case adifo.JobFailed:
		return fmt.Errorf("job %s failed: %s", id, st.Error)
	}
	return fmt.Errorf("job %s ended in unexpected state %q", id, st.State)
}

// genTests generates an ADI-ordered test set: in-process through the
// public library by default, or as a remote atpg job when -server is
// set — the two paths produce bit-identical test sets for equal inputs.
func genTests(o options, out io.Writer) error {
	kind, err := adifo.ParseOrder(o.order)
	if err != nil {
		return err
	}
	if len(o.servers) > 1 {
		return errors.New("gen accepts a single -server: ATPG jobs are sequential over shared drop state and cannot be fault-sharded across a cluster")
	}
	if len(o.servers) == 1 {
		return genRemote(o, kind, out)
	}

	ctx := context.Background()
	c, err := adifo.LoadCircuit(o.circuit)
	if err != nil {
		return err
	}
	fl := adifo.Faults(c)
	u, err := vectorSet(ctx, fl, o)
	if err != nil {
		return err
	}
	ix, err := adifo.ComputeADI(ctx, fl, u)
	if err != nil {
		return err
	}
	res, err := adifo.GenerateTests(ctx, fl, ix.Order(kind),
		adifo.WithFillSeed(o.fillseed), adifo.WithValidate(true))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "circuit     %s\n", c.Name)
	fmt.Fprintf(out, "order       %v, U %d vectors\n", kind, u.Len())
	printGenSummary(out, o.limit, len(res.Tests), res.Detected(), fl.Len(), res.Coverage(),
		res.AVE(), res.AtpgCalls, res.Backtracks, func(i int) (string, int) {
			return res.Tests[i].String(), res.TargetOf[i]
		})
	return nil
}

// genRemote runs the gen verb against one adifod server.
func genRemote(o options, kind adifo.OrderKind, out io.Writer) error {
	g := adifo.NewRemoteGenerator(o.servers[0], nil)
	defer g.Close()

	spec := baseSpec(o)
	spec.Order = &adifo.OrderSpec{Kind: kind.String()}
	spec.Gen = &adifo.GenSpec{FillSeed: o.fillseed}
	id, err := follow(g, spec, o.servers[0], o.quiet, out, func(ev adifo.ProgressEvent) {
		if ev.Targets > 0 {
			fmt.Fprintf(out, "target %d/%d: %d tests, %d detected, %d active\n",
				ev.Target, ev.Targets, ev.Tests, ev.Detected, ev.Active)
		} else {
			fmt.Fprintf(out, "block %d/%d: %d vectors, %d detected\n",
				ev.Block+1, ev.Blocks, ev.VectorsUsed, ev.Detected)
		}
	})
	if err != nil {
		return err
	}
	res, err := g.Result(context.Background(), id)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "circuit     %s (fingerprint %s)\n", res.Circuit, res.Fingerprint)
	fmt.Fprintf(out, "order       %s, U %d vectors\n", res.Order, res.Vectors)
	printTiming(out, res.Timing)
	printTrace(out, res.TraceID)
	printGenSummary(out, o.limit, len(res.Tests), res.Detected, res.Faults, res.Coverage,
		res.AVE, res.AtpgCalls, res.Backtracks, func(i int) (string, int) {
			return res.Tests[i], res.TargetOf[i]
		})
	return nil
}

// printGenSummary renders a generation outcome — local or remote, the
// same layout — with at most limit test rows (0 = all).
func printGenSummary(out io.Writer, limit, tests, detected, faults int, coverage, ave float64,
	atpgCalls, backtracks int, test func(i int) (string, int)) {
	fmt.Fprintf(out, "tests       %d, detected %d/%d (%.2f%%), AVE %.2f\n",
		tests, detected, faults, 100*coverage, ave)
	fmt.Fprintf(out, "effort      %d ATPG calls, %d backtracks\n", atpgCalls, backtracks)
	for i := 0; i < tests; i++ {
		if limit > 0 && i >= limit {
			fmt.Fprintf(out, "... (%d more)\n", tests-i)
			break
		}
		v, target := test(i)
		fmt.Fprintf(out, "t%-4d %s (for f%d)\n", i, v, target)
	}
}

// printTiming renders the server-side wall-clock record of a remote
// job: queue wait, run time, and the per-phase breakdown in pipeline
// order. Old servers send no timing; print nothing rather than zeros.
func printTiming(out io.Writer, t *adifo.JobTiming) {
	if t == nil {
		return
	}
	fmt.Fprintf(out, "timing      queue %.3fs, run %.3fs\n", t.QueueWaitSeconds, t.RunSeconds)
	if len(t.Phases) == 0 {
		return
	}
	var parts []string
	for _, name := range []string{
		adifo.PhaseRegistryBuild, adifo.PhaseSimulate,
		adifo.PhaseOrder, adifo.PhaseGenerate, adifo.PhaseMerge,
	} {
		if v, ok := t.Phases[name]; ok {
			parts = append(parts, fmt.Sprintf("%s %.3fs", name, v))
		}
	}
	fmt.Fprintf(out, "phases      %s\n", strings.Join(parts, ", "))
}

// printTrace prints the job's distributed-trace id, the key into the
// server's /debug/traces flight recorder (and into log lines, which
// carry it as trace_id). Old servers send none; print nothing.
func printTrace(out io.Writer, traceID string) {
	if traceID == "" {
		return
	}
	fmt.Fprintf(out, "trace       %s\n", traceID)
}

// orderRemote runs the order verb as a remote adi_order job over the
// requested vector set, the U the in-process path uses without -stop.
func orderRemote(o options, out io.Writer) error {
	kind, err := adifo.ParseOrder(o.order)
	if err != nil {
		return err
	}
	if len(o.servers) > 1 {
		return errors.New("order accepts a single -server: the dynamic orders are sequential over shared ndet state and cannot be fault-sharded across a cluster")
	}
	or := adifo.NewRemoteOrderer(o.servers[0], nil)
	defer or.Close()

	spec := baseSpec(o)
	spec.Order = &adifo.OrderSpec{Kind: kind.String()}
	id, err := follow(or, spec, o.servers[0], o.quiet, out, func(ev adifo.ProgressEvent) {
		fmt.Fprintf(out, "block %d/%d: %d vectors, %d detected\n",
			ev.Block+1, ev.Blocks, ev.VectorsUsed, ev.Detected)
	})
	if err != nil {
		return err
	}
	res, err := or.Result(context.Background(), id)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "U %d vectors; |F_U| = %d of %d faults; ADImin=%d ADImax=%d ratio=%.2f\n",
		res.Vectors, res.NumDetected, res.Faults, res.ADIMin, res.ADIMax, res.Ratio)
	printTiming(out, res.Timing)
	printTrace(out, res.TraceID)
	return printOrder(out, o.limit, res.Order, res.Perm, res.ADI, func(fi int) string {
		if fi < len(res.Names) {
			return res.Names[fi]
		}
		return ""
	})
}

// printOrder renders a fault order — local or remote, the same layout
// — with at most limit rows (0 = all). A server is trusted but not
// blindly: a malformed result (a perm entry outside the ADI array)
// degrades to an error, not a panic.
func printOrder(out io.Writer, limit int, order string, perm, adi []int, name func(fi int) string) error {
	fmt.Fprintf(out, "order %s:\n", order)
	for pos, fi := range perm {
		if limit > 0 && pos >= limit {
			fmt.Fprintf(out, "... (%d more)\n", len(perm)-pos)
			break
		}
		if fi < 0 || fi >= len(adi) {
			return fmt.Errorf("malformed order result: perm entry f%d outside ADI array of %d", fi, len(adi))
		}
		fmt.Fprintf(out, "%4d: f%-4d ADI=%-5d %s\n", pos, fi, adi[fi], name(fi))
	}
	return nil
}

// vectorSet builds U for the adi, order and gen verbs: the exhaustive
// set or -n seeded random vectors, cut off at coverage -stop when it
// is set. It is the set a remote job gets for the same flags, and it
// refuses what a server refuses.
func vectorSet(ctx context.Context, fl *adifo.FaultList, o options) (*adifo.PatternSet, error) {
	inputs := fl.Circuit.NumInputs()
	var u *adifo.PatternSet
	switch {
	case !o.exhaustive:
		u = adifo.RandomPatterns(inputs, o.n, o.seed)
	case inputs > 20:
		return nil, fmt.Errorf("exhaustive patterns limited to 20 inputs, circuit has %d", inputs)
	default:
		u = adifo.ExhaustivePatterns(inputs)
	}
	if o.stop <= 0 {
		return u, nil
	}
	return adifo.SizePatterns(ctx, fl, u, o.stop)
}

// repro prints the paper's evaluation over the -suite circuits: the
// tables, figure and ablations that -table, -figure and -ablation
// pick, or, with none of them, Tables 1 and 4-7 and Figure 1 in paper
// order. Each member is prepared once, by the first experiment that
// needs it, and Tables 5, 6 and 7 are projections of the same
// generation runs, which execute once.
func repro(o options, out io.Writer) error {
	suite, err := gen.SelectSuite(o.suite)
	if err != nil {
		return err
	}
	switch o.table {
	case 0, 1, 4, 5, 6, 7:
	default:
		return fmt.Errorf("unknown table %d (want 1, 4, 5, 6 or 7)", o.table)
	}
	if o.figure != 0 && o.figure != 1 {
		return fmt.Errorf("unknown figure %d (want 1)", o.figure)
	}
	all := o.table == 0 && o.figure == 0 && !o.ablation
	wantTable := func(n int) bool { return all || o.table == n }
	// The first experiment over the suite prepares it, inside its own
	// timing line; Figure 1 takes irs420's setup from it when the
	// suite is prepared at all.
	needSuite := o.ablation || wantTable(4) || wantTable(5) || wantTable(6) || wantTable(7)
	var setups []*experiments.Setup
	prepare := func() (err error) {
		if setups == nil {
			setups, err = experiments.PrepareSuite(suite)
		}
		return err
	}

	if wantTable(1) {
		_, text, err := experiments.Table1()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, text)
	}
	if wantTable(4) {
		start := time.Now()
		if err := prepare(); err != nil {
			return err
		}
		_, text := experiments.Table4(setups)
		fmt.Fprintln(out, text)
		fmt.Fprintf(out, "(table 4 computed in %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if wantTable(5) || wantTable(6) || wantTable(7) {
		start := time.Now()
		if err := prepare(); err != nil {
			return err
		}
		runs := experiments.RunSuite(setups)
		if wantTable(5) {
			_, text := experiments.Table5(runs)
			fmt.Fprintln(out, text)
		}
		if wantTable(6) {
			_, text := experiments.Table6(runs)
			fmt.Fprintln(out, text)
		}
		if wantTable(7) {
			_, text := experiments.Table7(runs)
			fmt.Fprintln(out, text)
		}
		fmt.Fprintf(out, "(generation runs completed in %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if all || o.figure == 1 {
		if needSuite {
			if err := prepare(); err != nil {
				return err
			}
		}
		_, text, err := experiments.Figure1(experiments.Figure1Circuit, setups)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, text)
	}
	if o.ablation {
		if err := prepare(); err != nil {
			return err
		}
		_, text := experiments.Ablation(setups)
		fmt.Fprintln(out, text)
	}
	return nil
}

// benchgen writes every -suite circuit, irredundant as the experiments
// evaluate it, to <-out>/<name>.bench, so it can be inspected, archived
// or fed to other tools.
func benchgen(o options, out io.Writer) error {
	suite, err := gen.SelectSuite(o.suite)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	for _, sc := range suite {
		c, err := experiments.BuildSuiteCircuit(sc)
		if err != nil {
			return err
		}
		path := filepath.Join(o.out, sc.Name+".bench")
		if err := os.WriteFile(path, []byte(adifo.BenchString(c)), 0o666); err != nil {
			return err
		}
		st := c.ComputeStats()
		fmt.Fprintf(out, "%s: %d inputs, %d outputs, %d gates, %d levels -> %s\n",
			sc.Name, st.Inputs, st.Outputs, st.Gates, st.Levels, path)
	}
	return nil
}
