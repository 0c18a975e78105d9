package workload

import (
	"mtm/internal/rng"
	"mtm/internal/sim"
	"mtm/internal/vm"
)

// Spark models the TeraSort arm of Table 2: a Spark job sorting 350 GB
// (scaled). The job runs the classic phases, each with a distinct access
// pattern, so the hot set *moves* through the address space over time —
// the property that punishes slow-reacting profilers:
//
//	read:    sequential scan of the input partitions
//	shuffle: input read + scattered append into shuffle buckets
//	sort:    bucket-at-a-time random access (a hot window that marches
//	         across the shuffle space)
//	write:   sequential output
type Spark struct {
	base

	inputBytes int64

	input, shuffle, output *vm.VMA

	phase       int // 0 read, 1 shuffle, 2 sort, 3 write
	phaseOps    [4]int64
	phaseDone   [4]int64
	readCursor  int64
	bucketFill  []int64
	sortBucket  int
	sortOps     int64
	writeCursor int64
	recBytes    int64
	refs        []sim.Ref // the reusable access batch of one chunk
}

// sparkBuckets is the number of shuffle buckets.
const sparkBuckets = 32

// NewSpark sizes TeraSort to the paper's 350 GB footprint.
func NewSpark(cfg Config) *Spark {
	s := &Spark{
		inputBytes: 150 * GB / cfg.scale(),
		recBytes:   100, // TeraSort records are 100 bytes
	}
	s.name = "Spark"
	records := s.inputBytes / s.recBytes
	// Phase op counts: one pass to read, one to shuffle, several passes
	// to sort (multi-pass merge: compare + move), one to write.
	f := cfg.opsFactorOrOne()
	s.phaseOps = [4]int64{
		int64(float64(records) * f),
		int64(float64(records) * f),
		int64(float64(records) * 4 * f),
		int64(float64(records) * f),
	}
	for _, n := range s.phaseOps {
		s.totalOps += n
	}
	return s
}

func (s *Spark) Init(e *sim.Engine) {
	s.input = e.AS.Alloc("spark.input", s.inputBytes)
	s.shuffle = e.AS.Alloc("spark.shuffle", s.inputBytes)
	s.output = e.AS.Alloc("spark.output", s.inputBytes)
	s.bucketFill = make([]int64, sparkBuckets)
	e.InitTouch(sim.HomeSocket, s.input)
}

func (s *Spark) bucketBytes() int64 { return s.shuffle.Bytes() / sparkBuckets }

func (s *Spark) RunInterval(e *sim.Engine) { e.RunChunks(s) }

// NextChunk returns the refs of one chunk of opChunk records in the
// current phase and steps the phase when it is complete.
func (s *Spark) NextChunk(r *rng.Rand) []sim.Ref {
	n := int64(opChunk)
	refs := s.refs[:0]
	switch s.phase {
	case 0: // sequential read of the input
		refs = touchRange(refs, s.input, s.readCursor%s.input.Bytes(), n*s.recBytes, s.recBytes, false)
		s.readCursor += n * s.recBytes
	case 1: // shuffle: read input, append to a key-chosen bucket
		refs = touchRange(refs, s.input, s.readCursor%s.input.Bytes(), n*s.recBytes, s.recBytes, false)
		s.readCursor += n * s.recBytes
		per := n / 8
		for i := 0; i < 8; i++ {
			b := r.Intn(sparkBuckets)
			off := int64(b)*s.bucketBytes() + s.bucketFill[b]%s.bucketBytes()
			refs = append(refs, sim.Ref{V: s.shuffle, Idx: pageOf(s.shuffle, off), N: uint32(per), NW: uint32(per)})
			s.bucketFill[b] += per * s.recBytes
		}
	case 2: // sort: random access within the current bucket
		bb := s.bucketBytes()
		base := int64(s.sortBucket) * bb
		for i := int64(0); i < n; i += 16 {
			off := base + int64(r.Int63n(bb))
			refs = append(refs, sim.Ref{V: s.shuffle, Idx: pageOf(s.shuffle, off), N: 16, NW: 8})
		}
		s.sortOps += n
		if s.sortOps >= s.phaseOps[2]/sparkBuckets {
			s.sortOps = 0
			s.sortBucket = (s.sortBucket + 1) % sparkBuckets
		}
	case 3: // sequential write of the sorted output
		refs = touchRange(refs, s.output, s.writeCursor%s.output.Bytes(), n*s.recBytes, s.recBytes, true)
		s.writeCursor += n * s.recBytes
	}
	s.refs = refs
	s.phaseDone[s.phase] += n
	s.doneOps += n
	if s.phaseDone[s.phase] >= s.phaseOps[s.phase] && s.phase < 3 {
		s.phase++
	}
	return refs
}
