package driver

import (
	"math/rand"
	"strings"
	"testing"

	"miniamr/internal/task"
)

// The recorder's checks, each tripped by a tiny task program next to a
// clean one that must stay silent. stageKey is the per-stage key type
// (produced and consumed within a stage), gridKey persistent state.

type stageKey struct{ idx int }

type gridKey struct{ c int }

// wideKey cannot tell its writers apart: every instance uses one key.
type wideKey struct{}

var corpusOptions = RecordOptions{StageKeys: []string{"driver.stageKey", "driver.wideKey"}}

// recordProgram runs body on a one-rank task runtime observed by a
// recorder and returns the rank's recording after the graph drained.
func recordProgram(t *testing.T, body func(rt *task.Runtime, rec *GraphRecorder)) *RankGraph {
	t.Helper()
	rec := NewGraphRecorder(DataFlow, 1, corpusOptions)
	rt := task.MustNewRuntime(task.Options{Workers: 2, Observer: rec.TaskObserver(0)})
	body(rt, rec)
	rt.Shutdown()
	return rec.Rank(0)
}

func nop(*task.Task) {}

// allreduce records a collective on the main goroutine, as the world's
// monitor would on entry to AllreduceFloat64.
func allreduce(rec *GraphRecorder) {
	rec.CollectiveEnter(0, "AllreduceFloat64", "sum", -1, 1, 0)
}

// checkFindings asserts that g's findings are exactly the wanted
// substrings, one finding each.
func checkFindings(t *testing.T, g *RankGraph, want ...string) {
	t.Helper()
	got := g.Findings()
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d %q:\n%s", len(got), len(want), want, strings.Join(got, "\n"))
	}
	for i, w := range want {
		if !strings.Contains(got[i], w) {
			t.Errorf("finding %q does not contain %q", got[i], w)
		}
	}
}

// cleanPipeline is the clean exemplar: a produce/consume pipeline over
// per-instance stage keys, funnelled through a taskwait into a
// collective.
func cleanPipeline(rt *task.Runtime, rec *GraphRecorder) {
	keys := make([]any, 4)
	for i := range keys {
		keys[i] = stageKey{i}
		rt.Spawn("produce", nop, task.Merge(task.InOut(gridKey{i}), task.Out(stageKey{i}))...)
		rt.Spawn("consume", nop, task.In(stageKey{i})...)
	}
	rt.Spawn("partial", nop, task.Merge(task.In(gridKey{0}), task.Out(stageKey{9}))...)
	rt.WaitKeys(stageKey{9})
	allreduce(rec)
}

func TestRecordedCleanProgram(t *testing.T) {
	g := recordProgram(t, cleanPipeline)
	checkFindings(t, g)
	if g.Work() != 9 || g.Span() != 2 || g.Antichain() != 5 {
		t.Errorf("work/span/antichain = %d/%d/%d, want 9/2/5", g.Work(), g.Span(), g.Antichain())
	}
	if got := g.Main(); strings.Join(got, ";") != "WaitKeys driver.stageKey;AllreduceFloat64 sum;taskwait" {
		t.Errorf("main sequence = %q", got)
	}
	want := map[string]int{
		"produce -> consume flow driver.stageKey":  4,
		"produce -> partial flow driver.gridKey":   1,
		"partial -> WaitKeys flow driver.stageKey": 1,
	}
	for _, e := range g.Edges() {
		k := e.From + " -> " + e.To + " " + e.Kind + " " + e.Key
		if want[k] != e.Count {
			t.Errorf("edge %s x%d, want x%d", k, e.Count, want[k])
		}
		delete(want, k)
	}
	for k := range want {
		t.Errorf("missing edge %s", k)
	}
}

// TestRecordedDeadWrite: a staged section nobody reads (the consumer
// edge was dropped).
func TestRecordedDeadWrite(t *testing.T) {
	g := recordProgram(t, func(rt *task.Runtime, _ *GraphRecorder) {
		rt.Spawn("pack", nop, task.Out(stageKey{0}, stageKey{1})...)
		rt.Spawn("send", nop, task.In(stageKey{0})...)
	})
	checkFindings(t, g, "dead write: pack writes driver.stageKey")
}

// TestRecordedReadBeforeWrite: a staged section read before anything
// writes it (the producer was dropped).
func TestRecordedReadBeforeWrite(t *testing.T) {
	g := recordProgram(t, func(rt *task.Runtime, _ *GraphRecorder) {
		rt.Spawn("unpack", nop, task.In(stageKey{2})...)
	})
	checkFindings(t, g, "read-before-write: unpack reads driver.stageKey")
}

// TestRecordedNeedlessBarrier: a taskwait with dependencies that reaches
// no collective is a pure barrier.
func TestRecordedNeedlessBarrier(t *testing.T) {
	g := recordProgram(t, func(rt *task.Runtime, _ *GraphRecorder) {
		for i := 0; i < 4; i++ {
			rt.Spawn("work", nop, task.Merge(task.InOut(gridKey{i}), task.Out(stageKey{i}))...)
		}
		rt.WaitKeys(stageKey{0}, stageKey{1}, stageKey{2}, stageKey{3})
		rt.Spawn("next", nop, task.InOut(gridKey{0})...)
	})
	checkFindings(t, g, "needless barrier: WaitKeys driver.stageKey")
}

// TestRecordedSerialFunnel: one reduce task wedged between parallel
// stages narrows the graph to width 1.
func TestRecordedSerialFunnel(t *testing.T) {
	g := recordProgram(t, func(rt *task.Runtime, _ *GraphRecorder) {
		rt.Spawn("scatter", nop, task.Out(stageKey{0})...)
		rt.Spawn("scatter", nop, task.Out(stageKey{1})...)
		rt.Spawn("reduce", nop, task.Merge(task.In(stageKey{0}, stageKey{1}), task.Out(gridKey{0}))...)
		rt.Spawn("gather", nop, task.In(gridKey{0})...)
		rt.Spawn("gather", nop, task.InOut(gridKey{0})...)
	})
	checkFindings(t, g, "serial funnel: reduce")
	if g.Antichain() != 2 {
		t.Errorf("antichain = %d, want 2", g.Antichain())
	}
}

// TestRecordedWideKey: instances of one label overwriting a key that
// cannot tell them apart serialise pairwise.
func TestRecordedWideKey(t *testing.T) {
	g := recordProgram(t, func(rt *task.Runtime, _ *GraphRecorder) {
		for i := 0; i < 4; i++ {
			rt.Spawn("produce", nop, task.Out(wideKey{})...)
		}
		rt.Spawn("consume", nop, task.In(wideKey{})...)
	})
	checkFindings(t, g, "wide key: instances of produce overwrite one driver.wideKey key")
	if g.Span() != 5 || g.Antichain() != 1 {
		t.Errorf("span/antichain = %d/%d, want 5/1", g.Span(), g.Antichain())
	}
}

// TestRecordedTaskwaitOrders: tasks spawned after a taskwait follow the
// waited tasks, but not the unwaited ones; a global taskwait orders
// everything.
func TestRecordedTaskwaitOrders(t *testing.T) {
	g := recordProgram(t, func(rt *task.Runtime, rec *GraphRecorder) {
		rt.Spawn("a", nop, task.Out(stageKey{0})...)
		rt.Spawn("b", nop, task.Out(gridKey{0})...)
		rt.WaitKeys(stageKey{0})
		allreduce(rec)
		rt.Spawn("c", nop, task.Out(gridKey{1})...) // after a, concurrent with b
		rt.Wait()
		rt.Spawn("d", nop, task.Out(gridKey{2})...) // after everything
	})
	checkFindings(t, g)
	if g.Span() != 3 || g.Antichain() != 2 {
		t.Errorf("span/antichain = %d/%d, want 3/2 ({b,c} then d)", g.Span(), g.Antichain())
	}
}

// TestMaxAntichainBruteForce cross-checks the matching-based antichain
// against exhaustive search on random small DAGs.
func TestMaxAntichainBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(10)
		g := newRankGraph(&RecordOptions{})
		for i := 0; i < n; i++ {
			g.addNode("t", false)
			g.ids[uint64(i+1)] = int32(i)
			for p := 0; p < i; p++ {
				if rng.Intn(4) == 0 {
					g.preds[i] = append(g.preds[i], int32(p))
				}
			}
		}
		reach := make([][]bool, n) // reach[i][j]: path i -> j
		for i := n - 1; i >= 0; i-- {
			reach[i] = make([]bool, n)
		}
		for j := 0; j < n; j++ {
			for _, p := range g.preds[j] {
				reach[p][j] = true
				for i := 0; i < n; i++ {
					if reach[i][p] {
						reach[i][j] = true
					}
				}
			}
		}
		best := 0
		for set := 0; set < 1<<n; set++ {
			ok, size := true, 0
			for i := 0; i < n && ok; i++ {
				if set&(1<<i) == 0 {
					continue
				}
				size++
				for j := 0; j < n; j++ {
					if set&(1<<j) != 0 && reach[i][j] {
						ok = false
					}
				}
			}
			if ok && size > best {
				best = size
			}
		}
		if got := g.Antichain(); got != best {
			t.Fatalf("trial %d (n=%d): antichain %d, brute force %d", trial, n, got, best)
		}
	}
}

func TestFold(t *testing.T) {
	in := []string{"a", "b", "b", "b", "c", "d", "c", "d", "e"}
	want := "  a\n  b x3\n  repeat x2\n    c\n    d\n  e"
	if got := strings.Join(fold(in, "  "), "\n"); got != want {
		t.Errorf("fold:\n%s\nwant:\n%s", got, want)
	}
}
