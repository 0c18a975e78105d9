package sim

import (
	"runtime"
	"time"

	"mtm/internal/rng"
)

// Lookahead is a Chunked workload whose next chunk RunChunks may draw on a
// second goroutine while the engine issues the current one, as long as
// every page of the address space has a frame (see runAhead for when it
// does). NextChunk then runs on that goroutine, so it must touch only the
// workload and r. It alternates two ref buffers, so a returned slice
// stays valid until the call after next. RunsAhead reports whether
// drawing ahead pays for this workload: it does where a chunk costs more
// to draw than to hand from one core to the other.
type Lookahead interface {
	Chunked
	RunsAhead() bool
}

// runAhead is RunChunks for a Lookahead that runs ahead. Holding chunk k,
// it asks a producer goroutine for chunk k+1 and then issues chunk k,
// through AccessBatch, whenever issuing chunk k cannot change what
// RunChunks' loop does next: no hook is installed, no page of the address
// space lacks a frame, w is not done and the interval budget holds even
// if every access of chunk k costs the slowest node's latency. A page
// loses its frame only through Poison and Unmap, neither of which runs
// while a chunk is issued, so such a chunk takes no fault, draws nothing
// from Rng, and can neither fail the engine nor exhaust the interval: the
// loop would draw chunk k+1 next, from the Rng state the producer draws
// it from. None of the tests reads chunk k's refs, so the producer draws
// while the engine issues. Otherwise chunk k is issued alone and the loop
// checks and draws inline. No chunk is drawn that is not issued, and none
// on an engine that has failed.
func (e *Engine) runAhead(w Lookahead) {
	var p *producer // started by the first chunk that runs ahead
	defer func() {
		if p != nil {
			p.stop()
		}
	}()
	var c chunk
	ahead := false // c came from the producer
	for {
		if !ahead {
			if e.IntervalExhausted() || w.Done() {
				return
			}
			c = nextChunk(w, e.Rng)
		}
		ahead = e.Intercept == nil && e.Observer == nil && e.AS.AllPresent() &&
			!w.Done() && e.budgetHolds(c.n)
		if ahead {
			if p == nil {
				p = startProducer(w, e.Rng)
			}
			p.req <- struct{}{}
		}
		e.AccessBatch(c.refs, HomeSocket)
		if ahead {
			c, _ = recv(p.out)
		}
	}
}

// chunk is one chunk's refs and the sum of their N, which budgetHolds
// takes. The goroutine that draws a chunk sums it.
type chunk struct {
	refs []Ref
	n    int64
}

// nextChunk draws w's next chunk from r and sums it.
func nextChunk(w Lookahead, r *rng.Rand) chunk {
	c := chunk{refs: w.NextChunk(r)}
	for _, ref := range c.refs {
		c.n += int64(ref.N)
	}
	return c
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
// owns the workload and Rng from a request until its chunk is received,
// and reads nothing else.
type producer struct {
	req chan struct{}
	out chan chunk
}

func startProducer(w Lookahead, r *rng.Rand) *producer {
	p := &producer{req: make(chan struct{}, 1), out: make(chan chunk, 1)}
	go func() {
		defer close(p.out)
		for {
			if _, ok := recv(p.req); !ok {
				return
			}
			p.out <- nextChunk(w, r)
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

// pollBatch is how many polls recv makes between reads of the clock,
// which cost about as much as a poll.
const pollBatch = 16

// recv receives from c, yielding the processor between polls for up to
// pollFor, then blocking. It reads the clock once per pollBatch polls, so
// it polls for less than one batch beyond pollFor.
func recv[T any](c <-chan T) (T, bool) {
	start := time.Now()
	for i := 1; i%pollBatch != 0 || time.Since(start) < pollFor; i++ {
		select {
		case v, ok := <-c:
			return v, ok
		default:
		}
		runtime.Gosched()
	}
	v, ok := <-c
	return v, ok
}
