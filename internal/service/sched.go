package service

import (
	"errors"
	"fmt"
)

// ErrOverloaded is returned by Submit when admission control rejects a
// job: the global queue bound or the tenant's own queue bound is
// reached. On the wire it is the typed "overloaded" envelope code with
// HTTP 429 and a Retry-After header — callers back off and resubmit
// instead of growing an unbounded queue.
var ErrOverloaded = errors.New("service: overloaded, queue is full")

// TenantLimit configures one tenant's slice of the service.
type TenantLimit struct {
	// Weight is the tenant's scheduling weight: a tenant with weight 3
	// is dispatched three jobs for every one of a weight-1 tenant when
	// both have work queued (default 1).
	Weight int
	// MaxQueued bounds the tenant's queued (not yet running) jobs;
	// submits beyond it are rejected with ErrOverloaded. 0 means no
	// per-tenant bound — only the global Config.MaxQueuedJobs applies.
	MaxQueued int
}

// tenantQueue is one tenant's FIFO plus its stride-scheduling state.
type tenantQueue struct {
	name  string
	queue []*job
	// pass is the tenant's virtual time: each dispatch advances it by
	// stride = 1/weight, so pop's pick-minimum-pass rule
	// interleaves tenants in proportion to their weights.
	pass   float64
	stride float64
	// idleSince is the scheduler event count at which the queue last
	// became empty; meaningful only while it is empty. It validates
	// idle marks: a tenant that re-entered and idled again carries a
	// newer mark, and the stale one is skipped.
	idleSince uint64
}

// pruneAfter is how many scheduler events (dispatches and removals) a
// tenant queue may sit empty before the scheduler drops it. The window
// keeps recent tenants' stride state intact — a tenant that was just
// dispatched re-enters at pass = base + stride, not at base, exactly
// as if it had never left — while a tenant that stays idle for a full
// window has long since been overtaken by base and re-enters at base
// either way, so dropping its queue changes nothing observable.
const pruneAfter = 64

// idleMark remembers when one tenant's queue went empty, in event
// order, so pruning pops marks FIFO instead of scanning the map.
type idleMark struct {
	tenant string
	since  uint64
}

// scheduler is the per-tenant weighted-fair queue set, replacing the
// single FIFO the engine started with. All methods are called with the
// owning Service's mu held.
type scheduler struct {
	tenants map[string]*tenantQueue
	queued  int
	// base is the pass of the most recent dispatch; tenants entering
	// (or re-entering after idling) start here, so an idle tenant
	// cannot bank virtual time and then monopolize the pool.
	base float64
	// events counts pops and removals; idle-tenant pruning is measured
	// in these events so a quiet server prunes nothing (nothing grows)
	// and a busy one prunes promptly.
	events uint64
	// idle lists empty tenant queues oldest-first; prune consumes it.
	idle []idleMark
	// onPrune, when set, observes each pruned tenant name — the
	// service deletes the tenant's queue-depth gauge label so metric
	// cardinality tracks live tenants, not all tenants ever seen.
	onPrune func(tenant string)
}

func newScheduler() *scheduler {
	return &scheduler{tenants: make(map[string]*tenantQueue)}
}

// markIdle records that tq just became empty; prune drops it if it is
// still empty a full window later.
func (sc *scheduler) markIdle(tq *tenantQueue) {
	tq.idleSince = sc.events
	sc.idle = append(sc.idle, idleMark{tenant: tq.name, since: sc.events})
}

// prune drops tenant queues that have sat empty for a full window,
// releasing the per-tenant map entry and (via onPrune) the metric
// label. The default tenant ("") is exempt: its gauge label is
// pre-created at wiring time and part of the stable exposition.
func (sc *scheduler) prune() {
	for len(sc.idle) > 0 && sc.events-sc.idle[0].since >= pruneAfter {
		m := sc.idle[0]
		sc.idle[0] = idleMark{}
		sc.idle = sc.idle[1:]
		tq, ok := sc.tenants[m.tenant]
		if !ok || len(tq.queue) > 0 || tq.idleSince != m.since || m.tenant == "" {
			continue
		}
		delete(sc.tenants, m.tenant)
		if sc.onPrune != nil {
			sc.onPrune(m.tenant)
		}
	}
	if len(sc.idle) == 0 {
		sc.idle = nil
	}
}

// tenantFor returns (creating if needed) tenant's queue, weighted
// from limits.
func (sc *scheduler) tenantFor(tenant string, limits map[string]TenantLimit) *tenantQueue {
	tq, ok := sc.tenants[tenant]
	if !ok {
		w := limits[tenant].Weight
		if w <= 0 {
			w = 1
		}
		tq = &tenantQueue{name: tenant, pass: sc.base, stride: 1 / float64(w)}
		sc.tenants[tenant] = tq
	}
	return tq
}

// enqueue appends j to its tenant's queue.
func (sc *scheduler) enqueue(tq *tenantQueue, j *job) {
	if len(tq.queue) == 0 && tq.pass < sc.base {
		tq.pass = sc.base
	}
	tq.queue = append(tq.queue, j)
	sc.queued++
}

// pop dispatches the next job: the front of the non-empty tenant queue
// with the smallest pass. Returns nil when nothing is queued.
func (sc *scheduler) pop() *job {
	var best *tenantQueue
	for _, tq := range sc.tenants {
		if len(tq.queue) == 0 {
			continue
		}
		if best == nil || tq.pass < best.pass ||
			(tq.pass == best.pass && tq.name < best.name) {
			best = tq
		}
	}
	if best == nil {
		return nil
	}
	j := best.queue[0]
	best.queue[0] = nil
	best.queue = best.queue[1:]
	sc.base = best.pass
	best.pass += best.stride
	sc.queued--
	sc.events++
	if len(best.queue) == 0 {
		sc.markIdle(best)
	}
	sc.prune()
	return j
}

// remove dequeues j if it is still queued, reporting whether it was.
// The caller that wins the removal owns j's terminal transition.
func (sc *scheduler) remove(j *job) bool {
	tq, ok := sc.tenants[j.tenant]
	if !ok {
		return false
	}
	for i, q := range tq.queue {
		if q == j {
			// Shift-and-truncate, nilling the vacated tail slot like
			// pop does: the backing array must not pin the removed
			// job (its spec and result bytes) until it happens to be
			// overwritten.
			copy(tq.queue[i:], tq.queue[i+1:])
			tq.queue[len(tq.queue)-1] = nil
			tq.queue = tq.queue[:len(tq.queue)-1]
			sc.queued--
			sc.events++
			if len(tq.queue) == 0 {
				sc.markIdle(tq)
			}
			sc.prune()
			return true
		}
	}
	return false
}

// drainAll empties every tenant queue and returns the dequeued jobs in
// tenant-then-FIFO order; Drain cancels them. A draining server has no
// fairness left to preserve, so every tenant's stride state (and gauge
// label) is dropped immediately instead of waiting out the idle
// window.
func (sc *scheduler) drainAll() []*job {
	var out []*job
	for _, tq := range sc.tenants {
		out = append(out, tq.queue...)
		tq.queue = nil
	}
	sc.queued = 0
	for name := range sc.tenants {
		if name == "" {
			continue
		}
		delete(sc.tenants, name)
		if sc.onPrune != nil {
			sc.onPrune(name)
		}
	}
	sc.idle = nil
	return out
}

// depth returns tenant's queued-job count.
func (sc *scheduler) depth(tenant string) int {
	if tq, ok := sc.tenants[tenant]; ok {
		return len(tq.queue)
	}
	return 0
}

// tenantLabel renders a tenant name as its metric label value: the
// empty (unset) tenant reads "default" on dashboards.
func tenantLabel(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// validateTenancy checks the multi-tenant spec fields at submit time.
// Both fields are free-form client identifiers; the bounds keep them
// usable as journal payloads and metric labels.
func validateTenancy(spec JobSpec) error {
	if len(spec.Tenant) > 64 {
		return fmt.Errorf("tenant longer than 64 bytes")
	}
	if len(spec.IdempotencyKey) > 256 {
		return fmt.Errorf("idempotency_key longer than 256 bytes")
	}
	for _, field := range []struct{ name, v string }{
		{"tenant", spec.Tenant}, {"idempotency_key", spec.IdempotencyKey},
	} {
		for _, c := range field.v {
			if c < 0x20 || c == 0x7f {
				return fmt.Errorf("%s contains a control character", field.name)
			}
		}
	}
	return nil
}

// idemCacheKey builds the dedupe map key: idempotency keys are scoped
// per tenant. Empty when the spec carries no key.
func idemCacheKey(tenant, key string) string {
	if key == "" {
		return ""
	}
	return tenant + "\x00" + key
}
