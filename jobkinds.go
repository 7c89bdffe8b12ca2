package adifo

import (
	"context"
	"fmt"
	"net/http"

	"github.com/eda-go/adifo/internal/service"
	"github.com/eda-go/adifo/internal/service/client"
)

// Job kinds of the v1 wire contract. A JobSpec without a kind is a
// grade job, so specs written against the original grade-only wire
// keep their meaning.
const (
	// KindGrade fault-grades a vector set (the Grader workload).
	KindGrade = service.KindGrade
	// KindAtpg runs ADI-ordered test generation remotely (the
	// RemoteGenerator workload).
	KindAtpg = service.KindAtpg
	// KindADIOrder computes an ADI fault order remotely (the
	// RemoteOrderer workload).
	KindADIOrder = service.KindADIOrder
)

// JobKindNames lists every job kind the engine knows, in wire-name
// form.
func JobKindNames() []string { return service.KindNames() }

// Wire types of the multi-kind job API, shared verbatim with the
// engine and the adifod server.
type (
	// OrderSpec selects one of the paper's six fault orders for atpg
	// and adi_order jobs (kind: orig, incr0, decr, 0decr, dynm,
	// 0dynm). Required on those kinds — like grade's mode, the wire
	// has no silent default order.
	OrderSpec = service.OrderSpec
	// GenSpec tunes an atpg job's test generator (fill seed,
	// backtrack limit); the zero value is the default.
	GenSpec = service.GenSpec
	// AtpgResult is the outcome of an atpg job: the generated test
	// set as bit strings, per-test targets, the coverage curve and
	// the generator's effort counters.
	AtpgResult = service.AtpgResult
	// OrderResult is the outcome of an adi_order job: the fault order
	// plus the ADI data it was derived from.
	OrderResult = service.OrderResult
)

// ErrUnsupportedKind is returned by Submit for a job kind the engine
// does not know or a server was configured not to serve; on the wire
// it is the typed "unsupported_kind" envelope code.
var ErrUnsupportedKind = service.ErrUnsupportedKind

// checkKind validates that a spec submitted through a kind-typed
// front end carries that kind (or none, which is filled in), so a
// spec built for one workload cannot silently run as another.
func checkKind(spec *JobSpec, want string) error {
	switch spec.Kind {
	case "":
		spec.Kind = want
	case want:
	default:
		return fmt.Errorf("adifo: spec has kind %q, this submitter runs %q jobs", spec.Kind, want)
	}
	return nil
}

// RemoteGenerator runs ATPG jobs on a running adifod server over the
// v1 HTTP+JSON API: the server computes the accidental detection
// index over the spec's vector set U, orders the fault universe by
// the spec's order kind, and generates a test set along that order —
// bit-identical to an in-process ComputeADI + GenerateTests run with
// equal inputs. Stream delivers per-block progress during the ADI
// simulation and per-target progress during generation. Non-2xx
// responses surface as *APIError.
type RemoteGenerator struct {
	remote
}

// NewRemoteGenerator returns a generator for the adifod server at
// base (e.g. "http://localhost:8417"). httpClient may be nil for
// http.DefaultClient.
func NewRemoteGenerator(base string, httpClient *http.Client) *RemoteGenerator {
	return &RemoteGenerator{remote{client.New(base, httpClient)}}
}

// Submit posts an atpg job and returns its id. An empty spec kind is
// filled in; any other kind is rejected.
func (g *RemoteGenerator) Submit(ctx context.Context, spec JobSpec) (string, error) {
	if err := checkKind(&spec, KindAtpg); err != nil {
		return "", err
	}
	return g.cl.Submit(ctx, spec)
}

// Result fetches the outcome of a finished atpg job.
func (g *RemoteGenerator) Result(ctx context.Context, id string) (*AtpgResult, error) {
	return g.cl.ResultAtpg(ctx, id)
}

// RemoteOrderer computes ADI fault orders on a running adifod server:
// the server simulates the spec's vector set U without dropping,
// derives the accidental detection indices and returns the requested
// order with the underlying ADI data — bit-identical to an in-process
// ComputeADI + Index.Order run with equal inputs. Non-2xx responses
// surface as *APIError.
type RemoteOrderer struct {
	remote
}

// NewRemoteOrderer returns an orderer for the adifod server at base.
// httpClient may be nil for http.DefaultClient.
func NewRemoteOrderer(base string, httpClient *http.Client) *RemoteOrderer {
	return &RemoteOrderer{remote{client.New(base, httpClient)}}
}

// Submit posts an adi_order job and returns its id. An empty spec
// kind is filled in; any other kind is rejected.
func (o *RemoteOrderer) Submit(ctx context.Context, spec JobSpec) (string, error) {
	if err := checkKind(&spec, KindADIOrder); err != nil {
		return "", err
	}
	return o.cl.Submit(ctx, spec)
}

// Result fetches the outcome of a finished adi_order job.
func (o *RemoteOrderer) Result(ctx context.Context, id string) (*OrderResult, error) {
	return o.cl.ResultOrder(ctx, id)
}
