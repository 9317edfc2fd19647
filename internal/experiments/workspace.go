package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/rta"
	"repro/internal/task"
	"repro/internal/xrand"
)

// Workspace is one worker's persistent scratch state for the per-sample
// pipeline (generate → partition → analyze): a generator scratch, a
// partitioning arena and a reusable RNG. parEach hands each worker one
// workspace and reuses it across every index the worker steals, so the
// steady-state sweep loop allocates nothing per task set.
//
// Ownership follows the arena contract (partition.Arena): anything returned
// by Gen-backed generators or Partition borrows the workspace and is valid
// only until the next generate/Partition call on the same workspace. A
// Workspace is not safe for concurrent use; workspaces are pooled and
// recycled across parEach calls.
type Workspace struct {
	gen      gen.Scratch
	arena    partition.Arena
	rng      *rand.Rand
	noReuse  bool
	paranoid bool

	// noCrossScale disables the verdict memo, the RM-TS → RM-TS/light
	// verdict reuse and the warm-start carry in the breakdown bisections
	// (Config.NoCrossScale) — the ablation knob the cross-scale-off golden
	// test compares against.
	noCrossScale bool
	// carry is the breakdown bisections' cross-scale warm-start state: the
	// converged responses of the last accepted scale of the CURRENT sample
	// (see rta.BatchState.EvaluateList). Reset at the start of each sample.
	carry rta.BatchState
	// uniTS/uniList are uniBreakdown's per-probe build buffers, hoisted so a
	// 14-probe bisection reuses one pair instead of allocating per probe.
	uniTS   task.Set
	uniList []task.Subtask
	// memo holds the current breakdownOf bisection's verdicts; noPre holds
	// RM-TS's verdicts on the current breakdown shape's scaled sets it
	// pre-assigned nothing in, which RM-TS/light's bisection reuses.
	memo, noPre verdictMemo
}

// verdictMemo maps exact scaled C-vectors to breakdownOf probe answers:
// the answer to the set whose C-vector is keys[i*n : (i+1)*n] is ans[i].
type verdictMemo struct {
	keys []task.Time
	ans  []verdict
}

// verdict is one breakdownOf probe answer: acceptance and the achieved
// utilization of the scaled set.
type verdict struct {
	ok bool
	u  float64
}

func (vm *verdictMemo) reset() {
	vm.keys = vm.keys[:0]
	vm.ans = vm.ans[:0]
}

// find returns the answer recorded for ts's C-vector, if any.
func (vm *verdictMemo) find(ts task.Set) (verdict, bool) {
	n := len(ts)
	for e := range vm.ans {
		key := vm.keys[e*n : (e+1)*n]
		hit := true
		for i := range key {
			if key[i] != ts[i].C {
				hit = false
				break
			}
		}
		if hit {
			return vm.ans[e], true
		}
	}
	return verdict{}, false
}

// add records v as the answer for ts's C-vector.
func (vm *verdictMemo) add(ts task.Set, v verdict) {
	for i := range ts {
		vm.keys = append(vm.keys, ts[i].C)
	}
	vm.ans = append(vm.ans, v)
}

// Gen returns the workspace's generator scratch, or nil in no-reuse mode —
// a nil scratch makes every gen.*Into call allocate fresh, reproducing the
// cold path exactly.
func (ws *Workspace) Gen() *gen.Scratch {
	if ws == nil || ws.noReuse {
		return nil
	}
	return &ws.gen
}

// Partition runs alg on (ts, m) drawing all working storage from the
// workspace arena. The result borrows the workspace. In no-reuse mode — or
// for an algorithm without arena support — it is a plain cold Partition
// call; the verdict and every Result field are identical either way (the
// arena equivalence tests pin this).
func (ws *Workspace) Partition(alg partition.Algorithm, ts task.Set, m int) *partition.Result {
	var res *partition.Result
	if ws != nil && !ws.noReuse {
		if ap, ok := alg.(partition.ArenaPartitioner); ok {
			res = ap.PartitionArena(ts, m, &ws.arena)
		}
	}
	if res == nil {
		res = alg.Partition(ts, m)
	}
	// Paranoid mode: re-prove every successful result from scratch. The
	// panic is deliberate — parEach's isolation converts it into a
	// seed-reproducible SampleError naming this exact sample.
	if ws != nil && ws.paranoid && res != nil && res.OK {
		if err := partition.ValidateFor(alg, res); err != nil {
			panic(fmt.Sprintf("paranoid: invariant violation in %s on m=%d: %v", alg.Name(), m, err))
		}
	}
	return res
}

// wsPool recycles workspaces across parEach calls (and across benchmark
// iterations), so buffer capacities survive the whole process lifetime.
// The pooled RNG rides xrand.Source — bit-identical to rand.NewSource but
// with the ~3× cheaper reseed the per-sample loop actually pays for (the
// cold NoReuse path keeps constructing stdlib sources, pinning the contract).
var wsPool = sync.Pool{New: func() interface{} {
	return &Workspace{rng: rand.New(xrand.New(0))}
}}

func getWorkspace(c Config) *Workspace {
	ws := wsPool.Get().(*Workspace)
	ws.noReuse = c.NoReuse
	ws.paranoid = c.Paranoid
	ws.noCrossScale = c.NoCrossScale
	return ws
}

func putWorkspace(ws *Workspace) { wsPool.Put(ws) }
