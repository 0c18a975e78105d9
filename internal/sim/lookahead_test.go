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

// producerAlive reports whether a producer goroutine exists. The
// goroutine count alone can miss one: the goroutine of a test that just
// finished may still be exiting when the count before RunChunks is taken.
func producerAlive() bool {
	b := make([]byte, 1<<20)
	return strings.Contains(string(b[:runtime.Stack(b, true)]), "sim.startProducer")
}

// lookaheadEngine returns an engine with one thread and a 1 s interval,
// on which no page lacks a frame, so chunks may run ahead from the start.
// Its VMA "v" has 4 huge pages, all on PM, the slowest node, so
// runAhead's latency bound is exact. VMA "x" has 2 huge pages on DRAM,
// which leaves DRAM room for one more. A case takes a frame away by
// unmapping or poisoning a page of x as it draws a chunk: those pages
// keep their frames reserved, so the first refault takes DRAM's last
// free frame and a second runs out of memory.
func lookaheadEngine() (e *Engine, v, x *vm.VMA) {
	e = NewEngine(tier.TwoTierTopology(6*tier.MB, 8*tier.MB), 1)
	e.Threads = 1
	e.Interval = time.Second
	e.SetSolution(&fixedSolution{node: 1})
	v = e.AS.Alloc("v", 8*tier.MB)
	x = e.AS.Alloc("x", 4*tier.MB)
	for _, u := range []*vm.VMA{v, x} {
		for i := 0; i < u.NPages; i++ {
			e.Access(u, i, 1, 0, HomeSocket)
		}
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
		// Drawing chunk 3 unmaps the page it names, so chunk 3 faults it
		// back in and chunk 4 is drawn inline after it.
		name:   "non-present-ref",
		chunks: 6,
		refs: func(s setup, k int) []Ref {
			if k == 3 {
				s.x.Unmap(0)
				return chunk(Ref{V: s.x, Idx: 0, N: 1})
			}
			return chunk()
		},
		wantOn: []int{2, 3, 5, 6},
	}, {
		// Drawing chunk 2 unmaps a page no chunk names until chunk 5,
		// which faults it back in. Chunks 2 to 5 are issued inline,
		// though none of 2 to 4 names the page.
		name:   "absent-page-outside-chunks",
		chunks: 8,
		refs: func(s setup, k int) []Ref {
			switch k {
			case 2:
				s.x.Unmap(1)
			case 5:
				return chunk(Ref{V: s.x, Idx: 1, N: 1})
			}
			return chunk()
		},
		wantOn: []int{2, 7, 8},
	}, {
		// The workload is done after chunk 4, which the producer drew.
		name:   "done-after-chunk-drawn-ahead",
		chunks: 4,
		refs:   func(setup, int) []Ref { return chunk() },
		wantOn: []int{2, 3, 4},
	}, {
		// Drawing chunk 3 poisons both pages of x, and the chunk's
		// second refault runs out of memory mid-chunk.
		name:   "engine-fails-mid-chunk",
		chunks: 6,
		refs: func(s setup, k int) []Ref {
			if k == 3 {
				s.x.Poison(0)
				s.x.Poison(1)
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
				leaked := func() bool { return runtime.NumGoroutine() > before || producerAlive() }
				for deadline := time.Now().Add(time.Second); leaked() && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				if leaked() {
					t.Errorf("ahead=%v: %d goroutines after RunChunks, %d before, producer alive %v",
						ahead, runtime.NumGoroutine(), before, producerAlive())
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
