package mtm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"runtime"
	"testing"

	"mtm/internal/sim"
	"mtm/internal/vm"
)

// refStreamPins are the SHA-256 digests of every ref Engine.Observer sees,
// from Init on, in each workload's run under first-touch at -scale 256
// -ops 0.1, seed 7. See TestRefStreamPin.
var refStreamPins = map[string]string{
	"gups":      "6e60eebf6982cbabf10e76ce555d3ac7e124b458141a4497fd540693c3bcf9f1",
	"voltdb":    "8d8b8093f3abb9db7304a7148257685e0c4430959d7bb80e2593a75fd439e19b",
	"cassandra": "ce44ae8bc01bc53214efee43e1b6efb71b4dee1c7f93a0597d405e9259964f96",
	"bfs":       "d69588a5594b1fa0c39926e66185fee6e33a786fe66d5559a8cd1bddab19f375",
	"sssp":      "bb15e77f631551a95a62f9e363e54062639d87770a2593b7ba6e6249d40a4c44",
	"spark":     "f50a6ba08de5e4a492b91a24ca891fa53da2038f13c6274b03d3af0466cbfd31",
	"pingpong":  "96e7b39508e3e85a15859fa0193a5422cccf3d3bdfb2b6264447a330853f9302",
}

// refHasher feeds each observed ref to a SHA-256 as its VMA's name, page,
// access and write counts and socket, buffered so the hash sees few calls.
type refHasher struct {
	h   hash.Hash
	buf []byte
}

func (r *refHasher) observe(v *vm.VMA, idx int, n, nw uint32, socket int) {
	r.buf = append(r.buf, v.Name...)
	r.buf = append(r.buf, 0)
	r.buf = binary.LittleEndian.AppendUint64(r.buf, uint64(idx))
	r.buf = binary.LittleEndian.AppendUint32(r.buf, n)
	r.buf = binary.LittleEndian.AppendUint32(r.buf, nw)
	r.buf = binary.LittleEndian.AppendUint32(r.buf, uint32(socket))
	if len(r.buf) >= 1<<16 {
		r.h.Write(r.buf)
		r.buf = r.buf[:0]
	}
}

func (r *refHasher) sum() string {
	r.h.Write(r.buf)
	r.buf = r.buf[:0]
	return hex.EncodeToString(r.h.Sum(nil))
}

// observedWorkload installs the hasher as the engine's Observer before the
// workload's Init, so set-up refs are hashed too.
type observedWorkload struct {
	sim.Workload
	h *refHasher
}

func (w *observedWorkload) Init(e *sim.Engine) {
	e.Observer = w.h.observe
	w.Workload.Init(e)
}

// TestRefStreamPin pins the stream of refs each workload issues, in order,
// to the digests in refStreamPins. A Result digest sees the refs only
// through the accounting they leave; this sees each one, so a change to
// how a workload issues its refs (batching, reordering) that leaves the
// stream alone keeps these digests, and one that moves a ref changes
// them. First-touch draws no randomness and migrates nothing, so the
// stream is the workload's alone. Digests are recorded on linux/amd64
// only, as the golden digests are.
func TestRefStreamPin(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("ref-stream digests are recorded on linux/amd64 only")
	}
	if testing.Short() || sim.RaceEnabled {
		t.Skip("seven runs; skipped in -short and -race")
	}
	for _, wl := range WorkloadNames() {
		t.Run(wl, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Scale = 256
			cfg.OpsFactor = 0.1
			cfg.Seed = 7
			w, err := NewWorkload(wl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSolution("first-touch", cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := &refHasher{h: sha256.New()}
			if _, err := RunWith(cfg, &observedWorkload{Workload: w, h: h}, s); err != nil {
				t.Fatal(err)
			}
			if got, want := h.sum(), refStreamPins[wl]; got != want {
				t.Errorf("ref-stream digest %s, pinned %q", got, want)
			}
		})
	}
}
