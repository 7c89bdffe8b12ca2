package cluster

import (
	"errors"
	"fmt"

	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/service"
)

// merger folds the per-shard progress streams into one merged
// per-block feed. A merged event for block b is emitted once every
// shard has either reported block b or finished earlier (a shard whose
// faults all dropped stops streaming early; from then on it
// contributes its final counters). Shard reruns and speculative
// duplicates replay identical per-block stats (grading is
// deterministic), so a track tolerates multiple concurrent reporters:
// replayed blocks below the frontier are ignored, and the merged feed
// never regresses and never double-counts. The engine stamps the
// job's id and kind on every merged event it publishes.
//
// A merger has no lock of its own: its job's pubMu orders every call
// together with the publish of the events it returns.
//
// A backend's events are not trusted: update refuses one whose block
// lies outside the job's bound, so a track never grows past it.
type merger struct {
	tracks  []shardTrack
	emitted int // merged events emitted so far (== blocks fully merged)
	blocks  int // total blocks, from the first event seen
	bound   int // no job on this spec has more blocks (maxBlocks)
}

// shardTrack is one shard's side of the merge. stats holds the stat of
// every block the shard has passed, so its length is the shard's
// frontier. A stream sees only the blocks after it attached to its
// sub-job, so a skipped block inherits the previous stat instead of
// merging zeros. blocks is the block count the shard's first event
// claimed, which every later event of the shard must repeat.
type shardTrack struct {
	stats  []blockStat
	blocks int
	done   bool
	final  blockStat
}

// errBadProgress marks a progress event no honest backend sends: one
// whose block is not below its block count, whose block count exceeds
// the job's bound, or whose block count differs from the shard's first
// event's.
var errBadProgress = errors.New("cluster: progress event out of bounds")

// maxBlocks bounds the 64-pattern blocks of a job on patterns p without
// its circuit: ⌈n/64⌉ for n random or explicit vectors, and for
// exhaustive patterns 2^20/64, since a job refuses them on a circuit of
// more than service.MaxExhaustiveInputs inputs.
func maxBlocks(p service.PatternSpec) int {
	n := 1 << service.MaxExhaustiveInputs
	switch {
	case p.Random != nil:
		n = p.Random.N
	case len(p.Vectors) > 0:
		n = len(p.Vectors)
	}
	return (n + logic.WordBits - 1) / logic.WordBits
}

type blockStat struct {
	vectorsUsed int
	detected    int
	active      int
}

// newMerger merges count shards of a job with at most bound blocks.
func newMerger(count, bound int) *merger {
	return &merger{tracks: make([]shardTrack, count), bound: bound}
}

// update records one progress event of shard i and returns any merged
// events that became complete. It refuses an event outside the bounds
// (errBadProgress) and then changes nothing.
func (m *merger) update(i int, ev service.ProgressEvent) ([]service.ProgressEvent, error) {
	t := &m.tracks[i]
	if ev.Block < 0 || ev.Block >= ev.Blocks || ev.Blocks > m.bound || t.blocks != 0 && ev.Blocks != t.blocks {
		return nil, fmt.Errorf("%w: shard %d sent block %d of %d; the job has at most %d blocks, and the shard's first event said %d",
			errBadProgress, i, ev.Block, ev.Blocks, m.bound, t.blocks)
	}
	t.blocks = ev.Blocks
	if ev.Block < len(t.stats) {
		// A duplicate attempt (speculation, or a rerun after a death)
		// replaying a block below the frontier: the track already holds
		// that block, reported or gap-filled.
		return nil, nil
	}
	var last blockStat
	if n := len(t.stats); n > 0 {
		last = t.stats[n-1]
	}
	for len(t.stats) < ev.Block {
		t.stats = append(t.stats, last)
	}
	t.stats = append(t.stats, blockStat{vectorsUsed: ev.VectorsUsed, detected: ev.Detected, active: ev.Active})
	m.blocks = max(m.blocks, ev.Blocks)
	return m.collect(), nil
}

// markDone records shard i's terminal counters, which the shard
// contributes to every merged block past its own early stop, and
// returns any merged events that became complete.
func (m *merger) markDone(i int, st service.JobStatus) []service.ProgressEvent {
	t := &m.tracks[i]
	t.done = true
	t.final = blockStat{vectorsUsed: st.VectorsUsed, detected: st.Detected, active: st.Active}
	return m.collect()
}

// collect returns the merged events that are complete but unemitted:
// those of the blocks that some shard has passed and every other shard
// has passed or finished short of.
func (m *merger) collect() []service.ProgressEvent {
	var out []service.ProgressEvent
	for ; ; m.emitted++ {
		b := m.emitted
		var st blockStat
		passed := false
		for i := range m.tracks {
			t := &m.tracks[i]
			var c blockStat
			switch {
			case b < len(t.stats):
				c, passed = t.stats[b], true
			case t.done:
				c = t.final
			default:
				return out
			}
			st.detected += c.detected
			st.active += c.active
			st.vectorsUsed = max(st.vectorsUsed, c.vectorsUsed)
		}
		if !passed {
			return out
		}
		out = append(out, service.ProgressEvent{Block: b, Blocks: m.blocks,
			VectorsUsed: st.vectorsUsed, Detected: st.detected, Active: st.active})
	}
}

// MergeResults merges the per-shard results of one cluster job into
// the result an unsharded single-node run of the same spec would have
// produced, bit for bit:
//
//   - per-fault counters (DetCount, FirstDet, detection sets) are
//     shard-local facts and concatenate in fault-index order;
//   - per-vector ndet counters sum elementwise (a shard that stopped
//     early contributes zero beyond its stop — all its faults were
//     already dropped there, exactly as in the single run);
//   - vectors-used is the maximum over shards: active sets only
//     shrink, so the single run's global active list empties exactly
//     when the last shard's does.
//
// The shards must be a complete partition: one result per shard index
// 0..count-1, all with the same circuit fingerprint, mode and vector
// set. Violations return an error rather than a silently wrong merge.
func MergeResults(id string, shards []*service.JobResult) (*service.JobResult, error) {
	if len(shards) == 0 {
		return nil, errors.New("cluster: no shard results to merge")
	}
	byIndex := make([]*service.JobResult, len(shards))
	for _, r := range shards {
		if r == nil {
			return nil, errors.New("cluster: missing shard result")
		}
		if r.FaultShard == nil {
			return nil, fmt.Errorf("cluster: result %s carries no fault_shard", r.ID)
		}
		if r.FaultShard.Count != len(shards) {
			return nil, fmt.Errorf("cluster: result %s is shard %d of %d, merging %d",
				r.ID, r.FaultShard.Index, r.FaultShard.Count, len(shards))
		}
		i := r.FaultShard.Index
		if i < 0 || i >= len(shards) || byIndex[i] != nil {
			return nil, fmt.Errorf("cluster: duplicate or out-of-range shard index %d", i)
		}
		byIndex[i] = r
	}

	first := byIndex[0]
	n := 0
	for _, r := range byIndex {
		n += len(r.PerFault)
	}
	out := &service.JobResult{
		ID:          id,
		Kind:        service.KindGrade,
		Circuit:     first.Circuit,
		Fingerprint: first.Fingerprint,
		Mode:        first.Mode,
		TotalFaults: first.TotalFaults,
		Vectors:     first.Vectors,
		// Sized once: the coordinator retains merged results.
		PerFault: make([]service.FaultResult, 0, n),
	}
	nextF := 0
	for i, r := range byIndex {
		if r.Fingerprint != out.Fingerprint || r.Circuit != out.Circuit {
			return nil, fmt.Errorf("cluster: shard %d graded %s/%s, shard 0 graded %s/%s",
				i, r.Circuit, r.Fingerprint, out.Circuit, out.Fingerprint)
		}
		if r.Mode != out.Mode || r.Vectors != out.Vectors || r.TotalFaults != out.TotalFaults {
			return nil, fmt.Errorf("cluster: shard %d (mode %s, %d vectors, %d total faults) does not match shard 0 (mode %s, %d vectors, %d total faults)",
				i, r.Mode, r.Vectors, r.TotalFaults, out.Mode, out.Vectors, out.TotalFaults)
		}
		lo, hi := service.ShardRange(r.TotalFaults, i, len(byIndex))
		if r.Faults != hi-lo || len(r.PerFault) != hi-lo {
			return nil, fmt.Errorf("cluster: shard %d has %d faults, want range [%d, %d)", i, r.Faults, lo, hi)
		}
		for k, fr := range r.PerFault {
			if fr.F != nextF {
				return nil, fmt.Errorf("cluster: shard %d fault %d has global index %d, want %d", i, k, fr.F, nextF)
			}
			nextF++
		}
		out.Faults += r.Faults
		out.Detected += r.Detected
		if r.VectorsUsed > out.VectorsUsed {
			out.VectorsUsed = r.VectorsUsed
		}
		if len(r.Ndet) > len(out.Ndet) {
			out.Ndet = append(out.Ndet, make([]int, len(r.Ndet)-len(out.Ndet))...)
		}
		for u, n := range r.Ndet {
			out.Ndet[u] += n
		}
		out.PerFault = append(out.PerFault, r.PerFault...)
	}
	if out.Faults != out.TotalFaults {
		return nil, fmt.Errorf("cluster: shards cover %d of %d faults", out.Faults, out.TotalFaults)
	}
	if out.Faults > 0 {
		out.Coverage = float64(out.Detected) / float64(out.Faults)
	}
	return out, nil
}
