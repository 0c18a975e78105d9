package sim

import (
	"runtime"
	"time"

	"mtm/internal/rng"
	"mtm/internal/vm"
)

// Lookahead is a Chunked workload whose next chunk RunChunks may draw on a
// second goroutine while the engine issues the current one (see runAhead
// for when it does). NextChunk alternates two ref buffers, so a returned
// slice stays valid until the call after next. RunsAhead reports whether
// drawing ahead pays for this workload: it does where a chunk costs more
// to draw than to hand from one core to the other.
type Lookahead interface {
	Chunked
	RunsAhead() bool
}

// runAhead is RunChunks for a Lookahead that runs ahead. It asks a
// producer goroutine for chunk k+1 before it issues chunk k whenever
// issuing chunk k cannot change what RunChunks' loop does next: w is not
// done, no hook is installed, every ref hits a present page and the
// interval budget holds even if every access costs the slowest node's
// latency. Issuing such a chunk takes no fault, draws nothing from Rng,
// and can neither fail the engine nor exhaust the interval, so the loop
// would draw chunk k+1 next, from the Rng state the producer draws it
// from. Otherwise chunk k is issued alone and the loop checks and draws
// inline. No chunk is drawn that is not issued, and none on an engine
// that has failed.
func (e *Engine) runAhead(w Lookahead) {
	var p *producer // started by the first chunk that runs ahead
	defer func() {
		if p != nil {
			p.stop()
		}
	}()
	var refs []Ref
	ahead := false // refs came from the producer
	for {
		if !ahead {
			if e.IntervalExhausted() || w.Done() {
				return
			}
			refs = w.NextChunk(e.Rng)
		}
		nodes, n := warm(refs)
		e.warmSink ^= nodes
		ahead = nodes != vm.NoNode && e.Intercept == nil && e.Observer == nil &&
			!w.Done() && e.budgetHolds(n)
		if ahead {
			if p == nil {
				p = startProducer(w, e.Rng)
			}
			p.req <- struct{}{}
		}
		e.issue(refs, HomeSocket)
		if ahead {
			refs, _ = recv(p.out)
		}
	}
}

// budgetHolds reports whether the interval stays unexhausted after n more
// accesses from HomeSocket, each charged the slowest node's latency.
func (e *Engine) budgetHolds(n int64) bool {
	var worst time.Duration
	for _, l := range e.latNow[HomeSocket] {
		worst = max(worst, l)
	}
	return (e.intApp+time.Duration(n)*(worst+PerAccessCPU))/time.Duration(e.Threads) < e.Interval
}

// producer draws a Lookahead's chunks on a goroutine of its own, one per
// request on req, each sent on out; it closes out when req is closed. It
// owns the workload and Rng from a request until its chunk is received.
type producer struct {
	req chan struct{}
	out chan []Ref
}

func startProducer(w Lookahead, r *rng.Rand) *producer {
	p := &producer{req: make(chan struct{}, 1), out: make(chan []Ref, 1)}
	go func() {
		defer close(p.out)
		for {
			if _, ok := recv(p.req); !ok {
				return
			}
			p.out <- w.NextChunk(r)
		}
	}()
	return p
}

// stop ends the producer and waits for its goroutine to finish, so the
// goroutine never outlives runAhead. No request is outstanding, so out
// holds no chunk.
func (p *producer) stop() {
	close(p.req)
	<-p.out
}

// pollFor is how long recv polls before it blocks. Drawing a chunk takes
// tens of microseconds, and waking a blocked goroutine for every chunk
// cost more than drawing ahead saved: with blocking receives Cassandra ran
// slower than inline. Polling without bound livelocked runs side by side
// when they outnumbered the cores.
const pollFor = 200 * time.Microsecond

// recv receives from c, yielding the processor between polls for up to
// pollFor, then blocking.
func recv[T any](c <-chan T) (T, bool) {
	for start := time.Now(); time.Since(start) < pollFor; runtime.Gosched() {
		select {
		case v, ok := <-c:
			return v, ok
		default:
		}
	}
	v, ok := <-c
	return v, ok
}
