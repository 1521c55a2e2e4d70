package driver

import (
	"cmp"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"

	"miniamr/internal/cluster"
	"miniamr/internal/mpi"
	"miniamr/internal/simnet"
	"miniamr/internal/task"
)

// GraphRecorder records what a real run declares, per rank: the logical
// task DAG of the data-flow variant and the operations the rank's main
// goroutine issues (taskwaits, collectives and, for the variants that
// keep MPI on the main goroutine, point-to-point sends and receives). It
// attaches through the existing hooks — an application's TaskObserver
// and the world's MPI monitor — so recording changes nothing on the
// execution path.
//
// The DAG is rebuilt from spawn-time accesses in spawn order with the
// runtime's own last-writer/readers rule (task.Runtime.link), but unlike
// the runtime's TaskDependence events it keeps edges to predecessors that
// already finished, so the graph depends only on the program, never on
// scheduling. Taskwaits are zero-weight nodes ordering the waited tasks
// before everything the main goroutine spawns afterwards.
//
// Point-to-point operations of the data-flow variant run in worker tasks,
// so their order varies between runs; they are not recorded. Send/receive
// symmetry and cross-rank collective agreement are the runtime
// sanitizer's audits.
type GraphRecorder struct {
	variant Variant
	opts    RecordOptions
	ranks   []*RankGraph
}

// RecordOptions configure a GraphRecorder's checks and folding.
type RecordOptions struct {
	// StageKeys lists the per-stage dependency key types as %T prints
	// them ("app.sectKey"): regions produced and consumed within a
	// stage. The dead-write, read-before-write and wide-key checks run on
	// these types only; persistent state keys carry no such obligations.
	StageKeys []string
	// TagClass names a message tag's class (a direction, a protocol
	// step) in the recorded MPI sequence; nil prints tags as numbers.
	TagClass func(tag int) string
}

// NewGraphRecorder returns a recorder for a run of variant v on ranks
// ranks.
func NewGraphRecorder(v Variant, ranks int, opts RecordOptions) *GraphRecorder {
	r := &GraphRecorder{variant: v, opts: opts, ranks: make([]*RankGraph, ranks)}
	for i := range r.ranks {
		r.ranks[i] = newRankGraph(&r.opts)
	}
	return r
}

// TaskObserver returns rank's task observer, in the shape of the
// applications' Config.TaskObserver.
func (r *GraphRecorder) TaskObserver(rank int) task.Observer { return r.ranks[rank] }

// Rank returns one rank's recording.
func (r *GraphRecorder) Rank(rank int) *RankGraph { return r.ranks[rank] }

// Run executes the recorder's variant of job on an in-process world of
// nodes x ranksPerNode ranks with cores workers each, over a zero-cost
// network, with the recorder attached as the world's MPI monitor. The
// job's TaskObserver must already point at r.TaskObserver. It returns the
// per-rank results.
func (r *GraphRecorder) Run(job Job, nodes, ranksPerNode, cores int) ([]Result, error) {
	topo, err := cluster.New(nodes, ranksPerNode, cores)
	if err != nil {
		return nil, err
	}
	if topo.Ranks() != len(r.ranks) {
		return nil, fmt.Errorf("driver: recorder sized for %d ranks, world has %d", len(r.ranks), topo.Ranks())
	}
	program, err := job.Bind(r.variant, cores, nil)
	if err != nil {
		return nil, err
	}
	world := mpi.NewWorld(topo, simnet.None())
	world.SetMonitor(r)
	results := make([]Result, topo.Ranks())
	errs := make([]error, topo.Ranks())
	runErr := world.Run(func(c *mpi.Comm) {
		res, err := program(c, nil)
		if err != nil {
			errs[c.Rank()] = err
			panic(err)
		}
		results[c.Rank()] = res
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, runErr
}

// Text renders the recording as the label-folded golden form: per rank,
// the DAG's work, span and maximum antichain, task labels with instance
// counts, label-to-label edges with kind, key type and count, and the
// main goroutine's operation sequence folded into runs.
func (r *GraphRecorder) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "variant %s ranks %d\n", r.variant, len(r.ranks))
	for i, g := range r.ranks {
		fmt.Fprintf(&b, "rank %d\n", i)
		g.text(&b)
	}
	return b.String()
}

// CompareGolden diffs a recording's Text against the golden file at
// path, or rewrites the file when update is set (the -update flag of the
// applications' recording tests).
func CompareGolden(path, text string, update bool) error {
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(text), 0o644)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%v (refresh with -update)", err)
	}
	if string(want) != text {
		return fmt.Errorf("recording diverges from %s (refresh with -update if intended):\n--- got ---\n%s--- want ---\n%s", path, text, want)
	}
	return nil
}

// Findings returns every rank's check findings, prefixed by the rank.
func (r *GraphRecorder) Findings() []string {
	var out []string
	for i, g := range r.ranks {
		for _, f := range g.Findings() {
			out = append(out, fmt.Sprintf("rank %d: %s", i, f))
		}
	}
	return out
}

// MessageSent implements mpi.Monitor.
func (r *GraphRecorder) MessageSent(src, dest, tag int) { r.p2p(src, "send", dest, tag) }

// RecvPosted implements mpi.Monitor.
func (r *GraphRecorder) RecvPosted(rank, src, tag int) { r.p2p(rank, "recv", src, tag) }

func (r *GraphRecorder) p2p(rank int, op string, peer, tag int) {
	// Collectives run over point-to-point messages in the reserved tag
	// space; they are recorded as themselves.
	if r.variant == DataFlow || tag >= mpi.MaxUserTag {
		return
	}
	class := fmt.Sprint(tag)
	if r.opts.TagClass != nil {
		class = r.opts.TagClass(tag)
	}
	r.ranks[rank].mainOp(fmt.Sprintf("%s %d %s", op, peer, class), false)
}

// CollectiveEnter implements mpi.Monitor.
func (r *GraphRecorder) CollectiveEnter(rank int, name, op string, root, count, seq int) {
	line := name
	if op != "" {
		line += " " + op
	}
	if root >= 0 {
		line += fmt.Sprintf(" root=%d", root)
	}
	r.ranks[rank].mainOp(line, true)
}

// MessageDelivered implements mpi.Monitor.
func (r *GraphRecorder) MessageDelivered(src, dest, tag int) {}

// MessageMatched implements mpi.Monitor.
func (r *GraphRecorder) MessageMatched(dest, src, tag, postedSrc, postedTag int) {}

// BlockEnter implements mpi.Monitor.
func (r *GraphRecorder) BlockEnter(info mpi.BlockInfo, abort func(error)) uint64 { return 0 }

// BlockExit implements mpi.Monitor.
func (r *GraphRecorder) BlockExit(token uint64) {}

// RankDone implements mpi.Monitor.
func (r *GraphRecorder) RankDone(rank int) {}

// Edge is one label-folded dependence of a recorded DAG: Count instance
// pairs from a From task (or taskwait) to a To one through keys of type
// Key. Kind is flow (read after write), anti (write after read) or output
// (write after write).
type Edge struct {
	From, To, Kind, Key string
	Count               int
}

// RankGraph is one rank's recording. It implements task.Observer; task
// events arrive under the runtime's lock, monitor events from the main
// goroutine, and mu serialises the two.
type RankGraph struct {
	mu   sync.Mutex
	opts *RecordOptions

	labels []string  // per node: task label, or the taskwait's name
	wait   []bool    // per node: zero-weight taskwait
	preds  [][]int32 // logical DAG, deduplicated
	ids    map[uint64]int32
	deps   map[any]*keyState
	fence  int32   // latest taskwait node, -1 before the first
	open   []int32 // tasks since the latest global taskwait
	run    int     // length of the current run of one label's spawns
	widest int     // longest such run
	edges  map[Edge]int
	main   []string

	pendingWait string // a taskwait not yet followed by a collective
	problems    map[string]int

	// Ready-set meter over the runtime's own dependence events.
	pending map[uint64]int
	succs   map[uint64][]uint64
	ready   int
	hwm     int

	analysed  bool
	span      int
	antichain int
}

// edgeInstance identifies one dependence of the node being linked, so a
// task reaching one predecessor through several keys of a type counts
// once.
type edgeInstance struct {
	pred      int32
	kind, key string
}

// keyState is the recorder's last-writer/readers record of one key.
type keyState struct {
	writer  int32 // -1 before the first write
	readers []int32
	stage   bool // a per-stage key type (RecordOptions.StageKeys)
	out     bool // the last write was an out-access
	read    bool // a task or taskwait read the last write
}

func newRankGraph(opts *RecordOptions) *RankGraph {
	return &RankGraph{
		opts:     opts,
		ids:      make(map[uint64]int32),
		deps:     make(map[any]*keyState),
		fence:    -1,
		edges:    make(map[Edge]int),
		problems: make(map[string]int),
		pending:  make(map[uint64]int),
		succs:    make(map[uint64][]uint64),
	}
}

func (g *RankGraph) stageKey(key string) bool {
	for _, k := range g.opts.StageKeys {
		if k == key {
			return true
		}
	}
	return false
}

func (g *RankGraph) problem(format string, args ...any) {
	g.problems[fmt.Sprintf(format, args...)]++
}

// addNode appends a task or taskwait node ordered after the latest
// taskwait (the main goroutine spawns it only once that wait returned).
func (g *RankGraph) addNode(label string, wait bool) int32 {
	if g.pendingWait != "" {
		g.problem("needless barrier: %s reaches no collective (a pure barrier serialising its predecessors against its successors)", g.pendingWait)
		g.pendingWait = ""
	}
	n := int32(len(g.labels))
	g.labels = append(g.labels, label)
	g.wait = append(g.wait, wait)
	g.preds = append(g.preds, nil)
	if g.fence >= 0 {
		g.preds[n] = append(g.preds[n], g.fence)
	}
	return n
}

// link adds the dependence p -> n through a key of type key, counting it
// once per instance pair, kind and key type.
func (g *RankGraph) link(p, n int32, kind, key string, seen map[edgeInstance]bool) {
	if p < 0 || p == n {
		return
	}
	if e := (edgeInstance{p, kind, key}); !seen[e] {
		seen[e] = true
		g.edges[Edge{From: g.labels[p], To: g.labels[n], Kind: kind, Key: key}]++
	}
	for _, q := range g.preds[n] {
		if q == p {
			return
		}
	}
	g.preds[n] = append(g.preds[n], p)
}

// access applies one declared access of node n, as task.Runtime.link
// does; waits read but never become writers or readers.
func (g *RankGraph) access(n int32, a task.Access, waitNode bool, seen map[edgeInstance]bool) {
	key := reflect.TypeOf(a.Key).String()
	st := g.deps[a.Key]
	if st == nil {
		st = &keyState{writer: -1, stage: g.stageKey(key)}
		g.deps[a.Key] = st
	}
	label := g.labels[n]
	if a.Mode != task.ModeOut { // in and inout read the key
		if st.writer >= 0 {
			g.link(st.writer, n, "flow", key, seen)
		} else if st.stage {
			g.problem("read-before-write: %s reads %s that no earlier task writes", label, key)
		}
		st.read = true
	}
	if a.Mode == task.ModeIn {
		if !waitNode {
			st.readers = append(st.readers, n)
		}
		return
	}
	if a.Mode == task.ModeOut && st.writer >= 0 {
		if st.stage && !st.read && st.writer != n && g.labels[st.writer] == label {
			g.problem("wide key: instances of %s overwrite one %s key, serialising every instance pair; the key must tell instances apart", label, key)
		}
		g.link(st.writer, n, "output", key, seen)
	}
	for _, r := range st.readers {
		g.link(r, n, "anti", key, seen)
	}
	if waitNode {
		return
	}
	st.writer = n
	st.readers = st.readers[:0]
	st.read = false
	st.out = a.Mode == task.ModeOut
}

// TaskSpawned implements task.Observer.
func (g *RankGraph) TaskSpawned(id uint64, label string, accs []task.Access) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.addNode(label, false)
	g.ids[id] = n
	g.open = append(g.open, n)
	seen := make(map[edgeInstance]bool)
	for _, a := range accs {
		g.access(n, a, false, seen)
	}
	if n > 0 && g.labels[n-1] == label {
		g.run++
	} else {
		g.run = 1
	}
	g.widest = max(g.widest, g.run)
	g.pending[id] = 0
	g.ready++
}

// TaskWait implements task.Observer: a taskwait with dependencies.
func (g *RankGraph) TaskWait(accs []task.Access) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.addNode("WaitKeys", true)
	seen := make(map[edgeInstance]bool)
	types := map[string]bool{}
	for _, a := range accs {
		g.access(n, a, true, seen)
		types[reflect.TypeOf(a.Key).String()] = true
	}
	line := "WaitKeys " + strings.Join(sortedKeys(types), ",")
	g.fenceAt(n, line)
	g.pendingWait = line
}

// Quiesced implements task.Observer: a global taskwait orders every task
// spawned so far before everything after it.
func (g *RankGraph) Quiesced() {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.addNode("taskwait", true)
	g.preds[n] = append(g.preds[n], g.open...)
	g.open = g.open[:0]
	g.fenceAt(n, "taskwait")
}

// fenceAt makes taskwait node n the fence later spawns follow and logs
// it in the main-goroutine sequence.
func (g *RankGraph) fenceAt(n int32, line string) {
	g.fence = n
	g.main = append(g.main, line)
}

func (g *RankGraph) mainOp(line string, collective bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if collective {
		g.pendingWait = ""
	}
	g.main = append(g.main, line)
}

// TaskDependence implements task.Observer. The runtime reports edges only
// from unfinished predecessors, so every edge gates the successor.
func (g *RankGraph) TaskDependence(pred, succ uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, live := g.pending[pred]; !live {
		return
	}
	g.succs[pred] = append(g.succs[pred], succ)
	g.pending[succ]++
	if g.pending[succ] == 1 {
		g.ready--
	}
	g.sample()
}

// TaskFinished implements task.Observer.
func (g *RankGraph) TaskFinished(id uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sample() // the finishing task still holds its slot
	g.ready--
	for _, s := range g.succs[id] {
		g.pending[s]--
		if g.pending[s] == 0 {
			g.ready++
		}
	}
	delete(g.succs, id)
	delete(g.pending, id)
	g.sample()
}

// sample records the ready-set high-water mark. It samples on
// dependence and finish events, not on spawns: a task's edges arrive
// right after its spawn under the same lock hold, so sampling at spawn
// would briefly count a dependent task as ready.
func (g *RankGraph) sample() {
	if g.ready > g.hwm {
		g.hwm = g.ready
	}
}

// HighWater returns the ready-set high-water mark: the most tasks whose
// predecessors had all finished while they had not, i.e. the scheduler's
// widest legal choice at one instant. It depends on scheduling, and it
// is a lower bound on the true maximum (sampling skips spawns), while
// any ready set is an antichain of the logical DAG: HighWater never
// exceeds Antichain.
func (g *RankGraph) HighWater() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.hwm
}

// Work returns the number of recorded tasks.
func (g *RankGraph) Work() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.ids)
}

// Span returns the task count of the DAG's longest path.
func (g *RankGraph) Span() int {
	g.analyse()
	return g.span
}

// Antichain returns the DAG's exact maximum antichain: the largest set
// of tasks no dependence path orders.
func (g *RankGraph) Antichain() int {
	g.analyse()
	return g.antichain
}

// Widest returns the longest run of consecutive spawns of one label —
// one stage's instances of a task, which a fork-join execution of the
// same stage runs as one parallel region.
func (g *RankGraph) Widest() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.widest
}

// Edges returns the label-folded dependences, sorted.
func (g *RankGraph) Edges() []Edge {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sortedEdges()
}

func (g *RankGraph) sortedEdges() []Edge {
	out := make([]Edge, 0, len(g.edges))
	for e, n := range g.edges {
		e.Count = n
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b Edge) int {
		return cmp.Or(strings.Compare(a.From, b.From), strings.Compare(a.To, b.To),
			strings.Compare(a.Kind, b.Kind), strings.Compare(a.Key, b.Key))
	})
	return out
}

// Main returns the main goroutine's recorded operations in order:
// taskwaits ("WaitKeys <key types>", "taskwait"), collectives and, for
// the variants without tasks, point-to-point sends and posted receives
// ("send <peer> <class>", "recv <peer> <class>").
func (g *RankGraph) Main() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.main...)
}

// Findings returns the rank's check findings, sorted: reads of
// per-stage keys nobody wrote, per-stage out-writes nobody read by the
// end of the run, keys too wide to tell a label's instances apart,
// taskwaits that reach no collective, and serial funnels (a task with
// parallel work on both sides that every other task is ordered with).
func (g *RankGraph) Findings() []string {
	g.analyse()
	g.mu.Lock()
	defer g.mu.Unlock()
	problems := make(map[string]int, len(g.problems))
	for p, n := range g.problems {
		problems[p] = n
	}
	for key, st := range g.deps {
		if st.stage && st.out && !st.read {
			problems[fmt.Sprintf("dead write: %s writes %s that no later task or taskwait reads", g.labels[st.writer], reflect.TypeOf(key))]++
		}
	}
	var out []string
	for _, p := range sortedKeys(problems) {
		out = append(out, fmt.Sprintf("%s (x%d)", p, problems[p]))
	}
	return out
}

// analyse computes the span, the maximum antichain and the serial
// funnels once, after the run. Node indices are a topological order:
// every predecessor was recorded before its successor.
func (g *RankGraph) analyse() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.analysed {
		return
	}
	g.analysed = true
	n := len(g.labels)
	words := (n + 63) / 64
	succs := make([][]int32, n)
	depth := make([]int, n)
	for i := 0; i < n; i++ {
		for _, p := range g.preds[i] {
			succs[p] = append(succs[p], int32(i))
			depth[i] = max(depth[i], depth[p])
		}
		if !g.wait[i] {
			depth[i]++
		}
		g.span = max(g.span, depth[i])
	}
	// desc[i] holds the tasks reachable from node i.
	desc := make([][]uint64, n)
	for i := n - 1; i >= 0; i-- {
		d := make([]uint64, words)
		for _, s := range succs[i] {
			for w, v := range desc[s] {
				d[w] |= v
			}
			if !g.wait[s] {
				d[s/64] |= 1 << (s % 64)
			}
		}
		desc[i] = d
	}
	var tasks []int
	anc := make([]int, n)
	for i := 0; i < n; i++ {
		if g.wait[i] {
			continue
		}
		tasks = append(tasks, i)
		forBits(desc[i], func(j int) { anc[j]++ })
	}
	g.antichain = len(tasks) - maxMatching(tasks, desc)

	for _, i := range tasks {
		taskPreds, taskSuccs := 0, 0
		for _, p := range g.preds[i] {
			if !g.wait[p] {
				taskPreds++
			}
		}
		for _, s := range succs[i] {
			if !g.wait[s] {
				taskSuccs++
			}
		}
		below := 0
		for _, v := range desc[i] {
			below += bits.OnesCount64(v)
		}
		if taskPreds >= 2 && taskSuccs >= 2 && anc[i]+below+1 == len(tasks) {
			g.problem("serial funnel: %s has parallel work on both sides and is ordered with every other task; the graph narrows to width 1 there", g.labels[i])
		}
	}
}

// forBits calls f with the index of every set bit.
func forBits(set []uint64, f func(int)) {
	for w, v := range set {
		for v != 0 {
			f(w*64 + bits.TrailingZeros64(v))
			v &= v - 1
		}
	}
}

// maxMatching returns the size of a maximum matching of the bipartite
// comparability graph (u on the left, v on the right, u before v) with
// Hopcroft-Karp. By Dilworth's theorem the maximum antichain of the
// order is the task count minus this matching.
func maxMatching(tasks []int, desc [][]uint64) int {
	n := len(desc)
	matchL := make([]int, n) // left node -> right partner, -1 free
	matchR := make([]int, n)
	for i := range matchL {
		matchL[i], matchR[i] = -1, -1
	}
	dist := make([]int, n)
	const inf = 1 << 30
	bfs := func() bool {
		var queue []int
		found := false
		for _, u := range tasks {
			if matchL[u] < 0 {
				dist[u] = 0
				queue = append(queue, u)
			} else {
				dist[u] = inf
			}
		}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			forBits(desc[u], func(v int) {
				switch w := matchR[v]; {
				case w < 0:
					found = true
				case dist[w] == inf:
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			})
		}
		return found
	}
	var dfs func(u int) bool
	dfs = func(u int) bool {
		for wi, word := range desc[u] {
			for word != 0 {
				v := wi*64 + bits.TrailingZeros64(word)
				word &= word - 1
				w := matchR[v]
				if w < 0 || (dist[w] == dist[u]+1 && dfs(w)) {
					matchL[u], matchR[v] = v, u
					return true
				}
			}
		}
		dist[u] = inf
		return false
	}
	size := 0
	for bfs() {
		for _, u := range tasks {
			if matchL[u] < 0 && dfs(u) {
				size++
			}
		}
	}
	return size
}

func (g *RankGraph) text(b *strings.Builder) {
	g.analyse()
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.ids) > 0 {
		fmt.Fprintf(b, "  work %d span %d antichain %d\n", len(g.ids), g.span, g.antichain)
		counts := make(map[string]int)
		for i, l := range g.labels {
			if !g.wait[i] {
				counts[l]++
			}
		}
		for _, l := range sortedKeys(counts) {
			fmt.Fprintf(b, "  task %s %d\n", l, counts[l])
		}
	}
	for _, e := range g.sortedEdges() {
		fmt.Fprintf(b, "  edge %s -> %s %s %s %d\n", e.From, e.To, e.Kind, e.Key, e.Count)
	}
	for _, line := range fold(g.main, "  ") {
		b.WriteString(line)
		b.WriteByte('\n')
	}
}

// maxPeriod bounds the block length fold searches for repeats.
const maxPeriod = 64

// fold renders a sequence with every repeated run collapsed: a line
// repeated r times becomes "line xr", and a block of lines repeated r
// times becomes "repeat xr" over the indented block. At each position
// the period covering the most lines wins, the shorter on ties.
func fold(lines []string, indent string) []string {
	var out []string
	for i := 0; i < len(lines); {
		bestP, bestR := 0, 1
		for p := 1; p <= maxPeriod && i+2*p <= len(lines); p++ {
			r := 1
			for i+(r+1)*p <= len(lines) && equalRun(lines[i:i+p], lines[i+r*p:i+(r+1)*p]) {
				r++
			}
			if r > 1 && p*r > bestP*bestR {
				bestP, bestR = p, r
			}
		}
		switch {
		case bestP == 0:
			out = append(out, indent+lines[i])
			i++
		case bestP == 1:
			out = append(out, fmt.Sprintf("%s%s x%d", indent, lines[i], bestR))
		default:
			out = append(out, fmt.Sprintf("%srepeat x%d", indent, bestR))
			out = append(out, fold(lines[i:i+bestP], indent+"  ")...)
		}
		i += bestP * bestR
	}
	return out
}

func equalRun(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
