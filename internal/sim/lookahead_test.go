package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mtm/internal/rng"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// chunkScript is a Lookahead whose chunks the test writes: chunk k
// (from 1) is refs(k). Each NextChunk draws one value from r and logs it
// with the goroutine that drew it.
type chunkScript struct {
	refs   func(k int) []Ref
	chunks int  // Done after this many
	ahead  bool // RunsAhead
	bufs   [2][]Ref
	draws  []uint64
	on     []string // goroutine of each draw
}

func (w *chunkScript) RunsAhead() bool { return w.ahead }
func (w *chunkScript) Done() bool      { return len(w.draws) >= w.chunks }
func (w *chunkScript) NextChunk(r *rng.Rand) []Ref {
	w.draws = append(w.draws, r.Uint64())
	w.on = append(w.on, goroutineID())
	buf := append(w.bufs[len(w.draws)%2][:0], w.refs(len(w.draws))...)
	w.bufs[len(w.draws)%2] = buf
	return buf
}

// goroutineID returns the calling goroutine's number from its stack
// header, "goroutine N [running]:".
func goroutineID() string {
	var b [64]byte
	return strings.Fields(string(b[:runtime.Stack(b[:], false)]))[1]
}

// lookaheadEngine returns an engine with one thread and a 1 s interval.
// Its VMA "v" has 4 huge pages, all on PM, the slowest node, so
// runAhead's latency bound is exact. DRAM has room for one huge page,
// which the first fault on VMA "x" takes; a second fault on "x" runs out
// of memory.
func lookaheadEngine() (e *Engine, v, x *vm.VMA) {
	e = NewEngine(tier.TwoTierTopology(2*tier.MB, 8*tier.MB), 1)
	e.Threads = 1
	e.Interval = time.Second
	e.SetSolution(&fixedSolution{node: 1})
	v = e.AS.Alloc("v", 8*tier.MB)
	x = e.AS.Alloc("x", 4*tier.MB)
	for i := 0; i < v.NPages; i++ {
		e.Access(v, i, 1, 0, HomeSocket)
	}
	e.beginInterval()
	return e, v, x
}

// TestRunAheadMatchesInline runs each case once inline and once with the
// workload running ahead, and checks that the two draw the same chunks
// from the same Rng positions, leave the engine in the same state, and
// draw exactly the expected chunks on the producer goroutine. No
// goroutine may outlive RunChunks.
func TestRunAheadMatchesInline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const perChunk = 100 // accesses per chunk, 25 refs of 4
	chunk := func(extra ...Ref) []Ref {
		var refs []Ref
		for i := 0; i < 25; i++ {
			refs = append(refs, Ref{Idx: i % 4, N: 4, NW: uint32(i % 2)})
		}
		return append(refs, extra...)
	}
	type setup struct {
		e    *Engine
		v, x *vm.VMA
	}
	cases := []struct {
		name   string
		chunks int
		refs   func(s setup, k int) []Ref
		tune   func(s setup)
		wantOn []int // the chunks the producer draws
		fails  bool  // the run ends out of memory
	}{{
		// Five chunks fill the interval exactly: the inline loop stops
		// after chunk 5, so nothing may draw chunk 6.
		name:   "budget-ends-at-chunk-boundary",
		chunks: 100,
		refs:   func(setup, int) []Ref { return chunk() },
		tune: func(s setup) {
			s.e.Interval = 5 * perChunk * (s.e.latNow[HomeSocket][1] + PerAccessCPU)
		},
		wantOn: []int{2, 3, 4, 5},
	}, {
		// Chunk 3 faults a page in, so chunk 4 is drawn inline after it.
		name:   "non-present-ref",
		chunks: 6,
		refs: func(s setup, k int) []Ref {
			if k == 3 {
				return chunk(Ref{V: s.x, Idx: 0, N: 1})
			}
			return chunk()
		},
		wantOn: []int{2, 3, 5, 6},
	}, {
		// The workload is done after chunk 4, which the producer drew.
		name:   "done-after-chunk-drawn-ahead",
		chunks: 4,
		refs:   func(setup, int) []Ref { return chunk() },
		wantOn: []int{2, 3, 4},
	}, {
		// Chunk 3's second fault on x runs out of memory mid-chunk.
		name:   "engine-fails-mid-chunk",
		chunks: 6,
		refs: func(s setup, k int) []Ref {
			if k == 3 {
				return chunk(Ref{V: s.x, Idx: 0, N: 1}, Ref{V: s.x, Idx: 1, N: 1}, Ref{V: s.v, Idx: 0, N: 1})
			}
			return chunk()
		},
		wantOn: []int{2, 3},
		fails:  true,
	}, {
		name:   "observer-installed",
		chunks: 6,
		refs:   func(setup, int) []Ref { return chunk() },
		tune: func(s setup) {
			s.e.Observer = func(*vm.VMA, int, uint32, uint32, int) {}
		},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(ahead bool) (*chunkScript, string) {
				e, v, x := lookaheadEngine()
				s := setup{e, v, x}
				if c.tune != nil {
					c.tune(s)
				}
				w := &chunkScript{chunks: c.chunks, ahead: ahead, refs: func(k int) []Ref {
					refs := c.refs(s, k)
					for i := range refs {
						if refs[i].V == nil {
							refs[i].V = v
						}
					}
					return refs
				}}
				before := runtime.NumGoroutine()
				e.RunChunks(w)
				for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n != before {
					t.Errorf("ahead=%v: %d goroutines after RunChunks, %d before", ahead, n, before)
				}
				if (e.Err() != nil) != c.fails {
					t.Errorf("ahead=%v: run ends with error %v", ahead, e.Err())
				}
				return w, fmt.Sprintf("next draw %d, app %v, accesses %d, faults %d, err %v",
					e.Rng.Uint64(), e.intApp, e.TotalAccesses, e.TotalFaults, e.Err())
			}
			inline, inlineState := run(false)
			ahead, aheadState := run(true)
			if !reflect.DeepEqual(ahead.draws, inline.draws) {
				t.Errorf("run ahead drew %d chunks %v, inline %d %v", len(ahead.draws), ahead.draws, len(inline.draws), inline.draws)
			}
			if aheadState != inlineState {
				t.Errorf("run ahead ends with %s\ninline ends with %s", aheadState, inlineState)
			}
			var on []int
			for k, g := range ahead.on {
				if g != ahead.on[0] {
					on = append(on, k+1)
				}
			}
			if !reflect.DeepEqual(on, c.wantOn) {
				t.Errorf("producer drew chunks %v, want %v", on, c.wantOn)
			}
		})
	}
}
