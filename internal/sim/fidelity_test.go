package sim

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"mtm/internal/fidelity"
	"mtm/internal/vm"
)

// oracleVMAs allocates 4 KB-page VMAs of the given page counts with every
// page present, so that one touch makes a page truth-hot at cut 1.
func oracleVMAs(pages ...int) []*vm.VMA {
	as := vm.NewAddressSpace()
	as.THP = false
	var vs []*vm.VMA
	for k, n := range pages {
		v := as.Alloc(fmt.Sprintf("v%d", k), int64(n)*vm.BasePageSize)
		for i := range n {
			v.Place(i, 0)
		}
		vs = append(vs, v)
	}
	return vs
}

// inRange masks word w of v to the pages v has.
func inRange(v *vm.VMA, w int, word uint64) uint64 {
	if n := v.NPages - w*vm.WordPages; n < vm.WordPages {
		word &= 1<<uint(n) - 1
	}
	return word
}

// setTruth makes the pages set in tw, and no others, v's touched pages.
func setTruth(v *vm.VMA, tw []uint64) {
	v.ResetCounts()
	for w, word := range tw {
		for ; word != 0; word &= word - 1 {
			v.TouchN(w*vm.WordPages+bits.TrailingZeros64(word), 1, 0, 0)
		}
	}
}

// denseLag is the estimation-lag state kept the way the oracle once kept
// it: a turn-hot stamp for every page, -1 while the page is not pending.
type denseLag struct {
	prev, pend vm.Bitmap
	since      []int32
}

func newDenseLag(n int) *denseLag {
	d := &denseLag{prev: vm.NewBitmap(n), pend: vm.NewBitmap(n), since: make([]int32, n)}
	for i := range d.since {
		d.since[i] = -1
	}
	return d
}

// sample applies one sample's truth and estimate words page by page and
// adds its lag tallies to s.
func (d *denseLag) sample(tw, ew []uint64, interval int32, s *fidScore) {
	for p := range d.since {
		t, e := tw[p/64]>>uint(p%64)&1 != 0, ew[p/64]>>uint(p%64)&1 != 0
		pending, wasHot := d.pend.Test(p), d.prev.Test(p)
		switch {
		case pending && e: // seen
			s.lagSum += int64(interval - d.since[p])
			s.lagN++
			pending = false
		case pending && !t: // missed
			s.missed++
			pending = false
		}
		if t && !wasHot && !pending {
			if e {
				s.lagN++ // seen the sample it turned hot
			} else {
				d.since[p] = interval
				pending = true
			}
		}
		if !pending {
			d.since[p] = -1
			d.pend.Clear(p)
		} else {
			d.pend.Set(p)
		}
		if t {
			d.prev.Set(p)
		} else {
			d.prev.Clear(p)
		}
	}
}

// lagRig drives scoreVMA over a set of VMAs beside a denseLag per VMA.
type lagRig struct {
	vmas     []*vm.VMA
	planes   []*fidelityPlane
	dense    []*denseLag
	interval int32
	// maxPending is the longest any page has been pending.
	maxPending int32
	// mixed counts words that held a seen, a missed, a kept and a newly
	// hot page in one sample.
	mixed int
}

func newLagRig(pages ...int) *lagRig {
	r := &lagRig{vmas: oracleVMAs(pages...)}
	for _, v := range r.vmas {
		r.planes = append(r.planes, &fidelityPlane{
			prev: vm.NewBitmap(v.NPages), est: vm.NewBitmap(v.NPages), pend: vm.NewBitmap(v.NPages),
		})
		r.dense = append(r.dense, newDenseLag(v.NPages))
	}
	return r
}

// step scores one sample with truth words tws[k] and estimate words
// ews[k] for VMA k, and fails t unless the sparse and dense lag states
// agree after it.
func (r *lagRig) step(t testing.TB, tws, ews [][]uint64) {
	t.Helper()
	var got, want fidScore
	var row fidelity.HeatRow
	for k, v := range r.vmas {
		pl, d := r.planes[k], r.dense[k]
		for w := range tws[k] {
			pendw, tw, ew := d.pend[w], tws[k][w], ews[k][w]
			seen, missed := pendw&ew, pendw&^ew&^tw
			if seen != 0 && missed != 0 && pendw&^seen&^missed != 0 && tw&^d.prev[w]&^ew != 0 {
				r.mixed++
			}
		}
		setTruth(v, tws[k])
		copy(pl.est, ews[k])
		scoreVMA(v, pl, 0, v.Bytes(), 1, r.interval, &got, &row)
		d.sample(tws[k], ews[k], r.interval, &want)

		where := fmt.Sprintf("interval %d, VMA %d (%d pages)", r.interval, k, v.NPages)
		if !slices.Equal(pl.pend, d.pend) || !slices.Equal(pl.prev, d.prev) {
			t.Fatalf("%s: pend/prev planes\n%x/%x\nwant\n%x/%x", where, pl.pend, pl.prev, d.pend, d.prev)
		}
		var recs []pendRec
		for i, s := range d.since {
			if s >= 0 {
				recs = append(recs, pendRec{int32(i), s})
				r.maxPending = max(r.maxPending, r.interval-s)
			}
		}
		sorted := slices.Clone(pl.pending)
		slices.SortStableFunc(sorted, func(a, b pendRec) int { return int(a.idx - b.idx) })
		if !slices.Equal(sorted, recs) {
			t.Fatalf("%s: pending records %v, want %v", where, pl.pending, recs)
		}
		for j := 1; j < len(pl.pending); j++ {
			if pl.pending[j].idx>>6 < pl.pending[j-1].idx>>6 {
				t.Fatalf("%s: pending records out of word order: %v", where, pl.pending)
			}
		}
	}
	if got.lagSum != want.lagSum || got.lagN != want.lagN || got.missed != want.missed {
		t.Fatalf("interval %d: lag sum %d, samples %d, missed %d; dense stamps give %d, %d, %d",
			r.interval, got.lagSum, got.lagN, got.missed, want.lagSum, want.lagN, want.missed)
	}
	r.interval++
}

// lagCase is a random run of samples: truth pages stay hot with
// probability 1-2^-stay and turn hot with 2^-fresh, and a page is in the
// estimate with probability 2^-est.
type lagCase struct {
	seed              uint64
	pages             []int
	samples           int
	stay, fresh, est  int
	stuck, stuckUntil int // page stuck of VMA 0 stays hot and unestimated until sample stuckUntil
}

// bitsWithDensity returns a word whose bits are set with probability
// 2^-k (k ≥ 1), or 1-2^k for k ≤ -1; 0 gives no bits.
func bitsWithDensity(rng *rand.Rand, k int) uint64 {
	if k == 0 {
		return 0
	}
	w := rng.Uint64()
	for ; k > 1; k-- {
		w &= rng.Uint64()
	}
	for ; k < -1; k++ {
		w |= rng.Uint64()
	}
	return w
}

func runLagCase(t testing.TB, c lagCase) *lagRig {
	t.Helper()
	rng := rand.New(rand.NewPCG(c.seed, 0x6f7261636c65))
	r := newLagRig(c.pages...)
	tws := make([][]uint64, len(r.vmas))
	ews := make([][]uint64, len(r.vmas))
	for k, v := range r.vmas {
		tws[k], ews[k] = make([]uint64, v.Words()), make([]uint64, v.Words())
	}
	for n := 0; n < c.samples; n++ {
		for k, v := range r.vmas {
			for w := range tws[k] {
				tws[k][w] = inRange(v, w, tws[k][w]&bitsWithDensity(rng, -c.stay)|bitsWithDensity(rng, c.fresh))
				ews[k][w] = inRange(v, w, bitsWithDensity(rng, c.est))
			}
		}
		if c.stuckUntil > 0 {
			w, bit := c.stuck/64, uint64(1)<<uint(c.stuck%64)
			tws[0][w] |= bit
			if n < c.stuckUntil {
				ews[0][w] &^= bit
			} else {
				ews[0][w] |= bit
			}
		}
		r.step(t, tws, ews)
	}
	return r
}

// TestOracleLagMatchesDenseStamps drives scoreVMA's pending list beside a
// stamp per page over random truth and estimate words, and compares the
// lag tallies, the pend and prev planes and the pending records after
// every sample.
func TestOracleLagMatchesDenseStamps(t *testing.T) {
	mixed := 0
	for _, c := range []lagCase{
		// Two VMAs, neither a multiple of 64 pages; page 70 stays
		// pending for 12 samples.
		{seed: 1, pages: []int{200, 64*3 + 17}, samples: 30, stay: 2, fresh: 2, est: 2, stuck: 70, stuckUntil: 12},
		{seed: 2, pages: []int{1000, 1}, samples: 40, stay: 3, fresh: 3, est: 3, stuck: 999, stuckUntil: 20},
		{seed: 3, pages: []int{63, 65, 128}, samples: 25, stay: 1, fresh: 1, est: 1},
		{seed: 4, pages: []int{640}, samples: 25, stay: 0, fresh: 2, est: 4},
	} {
		t.Run(fmt.Sprint(c.seed), func(t *testing.T) {
			r := runLagCase(t, c)
			if c.stuckUntil > 0 && r.maxPending <= DefaultFidelityHorizon {
				t.Errorf("longest pending %d samples, want more than %d", r.maxPending, DefaultFidelityHorizon)
			}
			mixed += r.mixed
		})
	}
	if mixed == 0 {
		t.Error("no word held seen, missed, kept and newly hot pages in one sample")
	}
}

// FuzzOracleLag runs TestOracleLagMatchesDenseStamps' comparison on a
// random case: the seed, two VMAs' page counts (1–512), and the
// densities: staying hot 1-2^-k for k 0–3 (0: never stays), turning hot
// and estimated 2^-k for k 1–4.
func FuzzOracleLag(f *testing.F) {
	f.Add(uint64(1), uint16(200), uint16(64*3+17), uint8(0x22), uint8(2))
	f.Add(uint64(9), uint16(64), uint16(511), uint8(0x31), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, a, b uint16, stayFresh, est uint8) {
		runLagCase(t, lagCase{
			seed:    seed,
			pages:   []int{int(a%512) + 1, int(b%512) + 1},
			samples: 16,
			stay:    int(stayFresh>>4) % 4, fresh: int(stayFresh&15)%4 + 1, est: int(est)%4 + 1,
		})
	})
}

// TestHeatColumnsPerPage compares scoreVMA's heat rows with the per-page
// formula on three VMAs whose column boundaries fall mid-word, so that
// some words land in one column and others straddle two.
func TestHeatColumnsPerPage(t *testing.T) {
	vmas := oracleVMAs(5000, 3001, 4500)
	var total int64
	for _, v := range vmas {
		total += v.Bytes()
	}
	rng := rand.New(rand.NewPCG(7, 7))
	for range 3 {
		var got, want fidelity.HeatRow
		var s fidScore
		var off int64
		for _, v := range vmas {
			pl := &fidelityPlane{prev: vm.NewBitmap(v.NPages), est: vm.NewBitmap(v.NPages), pend: vm.NewBitmap(v.NPages)}
			tw := make([]uint64, v.Words())
			for w := range tw {
				tw[w] = inRange(v, w, rng.Uint64())
				pl.est[w] = inRange(v, w, rng.Uint64()&rng.Uint64())
			}
			setTruth(v, tw)
			scoreVMA(v, pl, off, total, 1, 0, &s, &got)
			for i := range v.NPages {
				col := int((off + int64(i)*v.PageSize) * fidelity.HeatCols / total)
				if tw[i/64]>>uint(i%64)&1 != 0 {
					want.Truth[col] += v.PageSize
				}
				if pl.est.Test(i) {
					want.Est[col] += v.PageSize
				}
			}
			off += v.Bytes()
		}
		if got != want {
			t.Fatalf("heat row\n%v\nwant\n%v", got, want)
		}
	}
}
