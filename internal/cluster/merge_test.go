package cluster

import (
	"errors"
	"reflect"
	"testing"

	"github.com/eda-go/adifo/internal/service"
)

// ev is a progress event at block b of blocks with the given counters.
func ev(b, blocks, used, det, act int) service.ProgressEvent {
	return service.ProgressEvent{Block: b, Blocks: blocks, VectorsUsed: used, Detected: det, Active: act}
}

// finished is a shard's terminal status with the given counters.
func finished(used, det, act int) service.JobStatus {
	return service.JobStatus{State: service.StateDone, VectorsUsed: used, Detected: det, Active: act}
}

// accept is m.update of an event the merger must accept.
func accept(t *testing.T, m *merger, i int, e service.ProgressEvent) []service.ProgressEvent {
	t.Helper()
	evs, err := m.update(i, e)
	if err != nil {
		t.Fatalf("update(%d, %+v): %v", i, e, err)
	}
	return evs
}

func wantEvents(t *testing.T, got []service.ProgressEvent, want ...service.ProgressEvent) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged events\n got: %+v\nwant: %+v", got, want)
	}
}

// TestMergerGapFill: a stream sees only the blocks after it attached to
// its sub-job. The blocks before its first event merge zero counters,
// and a block it skips later inherits its previous counters.
func TestMergerGapFill(t *testing.T) {
	m := newMerger(1, 6)
	wantEvents(t, accept(t, m, 0, ev(2, 6, 192, 5, 7)),
		ev(0, 6, 0, 0, 0), ev(1, 6, 0, 0, 0), ev(2, 6, 192, 5, 7))
	wantEvents(t, accept(t, m, 0, ev(4, 6, 320, 9, 3)),
		ev(3, 6, 192, 5, 7), ev(4, 6, 320, 9, 3))
}

// TestMergerIgnoresReplay: a duplicate attempt replays blocks below a
// track's frontier. The replay emits nothing and changes nothing: a
// later gap inherits the counters the track had, not the replayed ones.
func TestMergerIgnoresReplay(t *testing.T) {
	m := newMerger(2, 8)
	for b := 0; b < 3; b++ {
		wantEvents(t, accept(t, m, 0, ev(b, 8, 64*(b+1), b, 10-b)))
	}
	wantEvents(t, accept(t, m, 0, ev(1, 8, 999, 999, 999)))
	wantEvents(t, accept(t, m, 0, ev(0, 8, 999, 999, 999)))
	wantEvents(t, accept(t, m, 0, ev(5, 8, 384, 6, 4)))
	wantEvents(t, accept(t, m, 1, ev(5, 8, 384, 1, 1)),
		ev(0, 8, 64, 0, 10), ev(1, 8, 128, 1, 9), ev(2, 8, 192, 2, 8),
		ev(3, 8, 192, 2, 8), ev(4, 8, 192, 2, 8), ev(5, 8, 384, 7, 5))
	// A replay below the merged frontier is ignored as well.
	wantEvents(t, accept(t, m, 1, ev(4, 8, 999, 999, 999)))
	wantEvents(t, accept(t, m, 1, ev(6, 8, 448, 2, 0)))
	wantEvents(t, accept(t, m, 0, ev(6, 8, 448, 7, 3)), ev(6, 8, 448, 9, 3))
}

// TestMergerEarlyFinish: a shard whose faults all dropped stops
// streaming and finishes early. Past the last block it reported it
// contributes its final counters, and its finish completes the blocks
// that waited for it.
func TestMergerEarlyFinish(t *testing.T) {
	m := newMerger(2, 4)
	wantEvents(t, accept(t, m, 0, ev(0, 4, 64, 3, 2)))
	wantEvents(t, accept(t, m, 1, ev(0, 4, 64, 1, 6)), ev(0, 4, 64, 4, 8))
	wantEvents(t, accept(t, m, 1, ev(1, 4, 128, 2, 5)))
	wantEvents(t, accept(t, m, 1, ev(2, 4, 192, 3, 4)))
	// Shard 0's stream missed its last block, at which every fault of
	// the shard had dropped.
	wantEvents(t, m.markDone(0, finished(128, 5, 0)),
		ev(1, 4, 128, 7, 5), ev(2, 4, 192, 8, 4))
	wantEvents(t, accept(t, m, 1, ev(3, 4, 256, 4, 3)), ev(3, 4, 256, 9, 3))
}

// TestMergerWaitsForEveryShard: the merged event for block b waits until
// every shard has passed b or finished.
func TestMergerWaitsForEveryShard(t *testing.T) {
	m := newMerger(3, 4)
	// Every shard reports (64(b+1), b+1, 10-b) at block b.
	at := func(b int) service.ProgressEvent { return ev(b, 4, 64*(b+1), b+1, 10-b) }
	for b := 0; b < 4; b++ {
		wantEvents(t, accept(t, m, 0, at(b)))
	}
	wantEvents(t, accept(t, m, 1, at(0)))
	wantEvents(t, accept(t, m, 1, at(1)))
	wantEvents(t, accept(t, m, 2, at(0)), ev(0, 4, 64, 3, 30))
	wantEvents(t, accept(t, m, 2, at(1)), ev(1, 4, 128, 6, 27))
	wantEvents(t, accept(t, m, 2, at(2)))
	wantEvents(t, m.markDone(1, finished(128, 2, 9)), ev(2, 4, 192, 8, 25))
	wantEvents(t, accept(t, m, 2, at(3)), ev(3, 4, 256, 10, 23))
}

// TestMergerBlocksFromFirstEvent: the job's block count comes from the
// first event any shard reports, and every merged event carries it,
// also one that a finish completes.
func TestMergerBlocksFromFirstEvent(t *testing.T) {
	m := newMerger(2, 3)
	wantEvents(t, accept(t, m, 0, ev(0, 3, 64, 1, 1)))
	wantEvents(t, m.markDone(1, finished(0, 0, 0)), ev(0, 3, 64, 1, 1))
	wantEvents(t, accept(t, m, 0, ev(1, 3, 128, 2, 0)), ev(1, 3, 128, 2, 0))
}

// TestMergerRefusesOutOfBounds: an event whose block is not below the
// job's bound or its own block count, or whose block count exceeds the
// bound or differs from the shard's first event's, is refused and
// changes nothing. A track never grows past the bound, however far a
// backend claims to be.
func TestMergerRefusesOutOfBounds(t *testing.T) {
	m := newMerger(2, 1)
	for _, e := range []service.ProgressEvent{
		ev(1_000_000, 1, 64, 1, 1),
		ev(1_000_000, 1_000_001, 64, 1, 1),
		ev(1, 1, 64, 1, 1),
		ev(0, 2, 64, 1, 1),
		ev(-1, 1, 64, 1, 1),
		ev(0, 0, 64, 1, 1),
	} {
		if evs, err := m.update(0, e); !errors.Is(err, errBadProgress) || evs != nil {
			t.Fatalf("update(0, %+v) = %v, %v; want errBadProgress", e, evs, err)
		}
	}
	if n := len(m.tracks[0].stats); n != 0 {
		t.Fatalf("refused events grew the track to %d blocks", n)
	}
	wantEvents(t, accept(t, m, 0, ev(0, 1, 64, 1, 1)))
	wantEvents(t, m.markDone(1, finished(64, 2, 0)), ev(0, 1, 64, 3, 1))

	m = newMerger(1, 8)
	wantEvents(t, accept(t, m, 0, ev(0, 4, 64, 1, 3)), ev(0, 4, 64, 1, 3))
	if _, err := m.update(0, ev(1, 5, 128, 2, 2)); !errors.Is(err, errBadProgress) {
		t.Fatalf("a block count that differs from the shard's first event's: %v, want errBadProgress", err)
	}
	wantEvents(t, accept(t, m, 0, ev(1, 4, 128, 2, 2)), ev(1, 4, 128, 2, 2))
}

// TestMaxBlocks: the bound comes from the spec alone.
func TestMaxBlocks(t *testing.T) {
	for _, tc := range []struct {
		p    service.PatternSpec
		want int
	}{
		{service.PatternSpec{Random: &service.RandomSpec{N: 1}}, 1},
		{service.PatternSpec{Random: &service.RandomSpec{N: 64}}, 1},
		{service.PatternSpec{Random: &service.RandomSpec{N: 65}}, 2},
		{service.PatternSpec{Vectors: make([]string, 129)}, 3},
		{service.PatternSpec{Exhaustive: true}, 16384},
	} {
		if got := maxBlocks(tc.p); got != tc.want {
			t.Errorf("maxBlocks(%+v) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

// FuzzMerge drives the merger with a drawn schedule of shard events,
// gaps, replays and finishes, and checks every merged event against a
// model worked out from the whole event history: the emitted blocks run
// from 0 with no gap, block b is emitted by the call after which every
// shard has passed b or finished, and it carries the sum over shards of
// the counters the history implies.
func FuzzMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, nRaw, blocksRaw uint8, script []byte) {
		n, blocks := 1+int(nRaw)%6, 1+int(blocksRaw)%24
		// stop[i] is how many blocks shard i streams before its faults
		// all drop; the shard's true counters at block b are stat(i, b).
		stop := make([]int, n)
		for i := range stop {
			stop[i] = blocks
			if i < len(script) {
				stop[i] = 1 + int(script[i])%blocks
			}
		}
		stat := func(i, b int) blockStat {
			return blockStat{vectorsUsed: 64 * (b + 1), detected: (i + 1) * (b + 1), active: (n - i) * (blocks - b)}
		}
		final := func(i int) blockStat {
			return blockStat{vectorsUsed: 64 * stop[i], detected: (i+1)*stop[i] + 1}
		}

		// The model keeps every event a shard's track accepted, in
		// order: those at or past its frontier.
		type accepted struct {
			block int
			st    blockStat
		}
		hist := make([][]accepted, n)
		done := make([]bool, n)
		frontier := func(i int) int {
			if h := hist[i]; len(h) > 0 {
				return h[len(h)-1].block + 1
			}
			return 0
		}
		// contrib is shard i's share of merged block b, if it has one
		// yet: the last accepted event at or below b (zeros before the
		// first), or its final counters once it finished short of b.
		contrib := func(i, b int) (blockStat, bool) {
			if b >= frontier(i) {
				return final(i), done[i]
			}
			var c blockStat
			for _, a := range hist[i] {
				if a.block <= b {
					c = a.st
				}
			}
			return c, true
		}
		// expect returns the merged event for block b, if every shard
		// has passed it or finished and at least one has passed it.
		expect := func(b int) (service.ProgressEvent, bool) {
			var sum blockStat
			passed := false
			for i := 0; i < n; i++ {
				c, ok := contrib(i, b)
				if !ok {
					return service.ProgressEvent{}, false
				}
				passed = passed || b < frontier(i)
				sum.detected += c.detected
				sum.active += c.active
				sum.vectorsUsed = max(sum.vectorsUsed, c.vectorsUsed)
			}
			return ev(b, blocks, sum.vectorsUsed, sum.detected, sum.active), passed
		}

		m := newMerger(n, blocks)
		emitted := 0
		check := func(got []service.ProgressEvent) {
			t.Helper()
			var want []service.ProgressEvent
			for {
				e, ok := expect(emitted + len(want))
				if !ok {
					break
				}
				want = append(want, e)
			}
			if len(got) != 0 || len(want) != 0 {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("after %d merged blocks\n got: %+v\nwant: %+v", emitted, got, want)
				}
			}
			emitted += len(want)
		}
		send := func(i, b int) {
			st := stat(i, b)
			if b >= frontier(i) {
				hist[i] = append(hist[i], accepted{b, st})
			}
			check(accept(t, m, i, ev(b, blocks, st.vectorsUsed, st.detected, st.active)))
		}
		finish := func(i int) {
			if done[i] {
				return
			}
			done[i] = true
			st := final(i)
			check(m.markDone(i, finished(st.vectorsUsed, st.detected, st.active)))
		}

		// next[i] is where shard i's primary stream goes on.
		next := make([]int, n)
		ops := script[min(n, len(script)):]
		for k := 0; k+1 < len(ops); k += 2 {
			op, arg := ops[k], int(ops[k+1])
			i := int(op>>2) % n
			switch op & 3 {
			case 0, 1: // the primary stream's next event, skipping op&1 + arg%2 blocks
				if b := next[i] + int(op&1) + arg%2; b < stop[i] {
					send(i, b)
					next[i] = b + 1
				}
			case 2: // a duplicate attempt's event: a replay, or a block ahead
				send(i, arg%stop[i])
			case 3:
				finish(i)
			}
		}
		for i := 0; i < n; i++ {
			finish(i)
		}
		last := 0
		for i := 0; i < n; i++ {
			last = max(last, frontier(i))
		}
		if emitted != last {
			t.Fatalf("merged %d blocks once every shard finished, want %d", emitted, last)
		}
	})
}
