package main

import (
	"fmt"

	"mtm"
	"mtm/internal/span"
)

// spec is one benchmark workload: a simulation configuration run as a
// closed loop of whole simulations, one after another in one process.
type spec struct {
	Name      string
	Workload  string
	Solution  string
	HugePages bool // 2 MB pages; false sets AddressSpace.THP off before Init
	Scale     int64
	Ops       float64
	Faults    string
	tune      func(*mtm.Config)
}

// benchScale is the machine and footprint divisor every workload runs at.
const benchScale = 64

// specs are the workloads, each chosen to stress a different layer; the
// README gives the reasons. Ops are sized so that one simulation takes
// about a second on a 2-core host, which leaves room for several
// simulations, and so a median, in every run.
var specs = []spec{
	{
		// Access-stream bound: Workload.RunInterval is nearly all of wall.
		Name: "gups-thp", Workload: "gups", Solution: "mtm",
		HugePages: true, Scale: benchScale, Ops: 0.4,
	},
	{
		// Same layer, but the Zipf key generator dominates the engine side.
		Name: "cassandra-zipf", Workload: "cassandra", Solution: "mtm",
		HugePages: true, Scale: benchScale, Ops: 0.06,
	},
	{
		// Migration-heavy: policy, admission, shadow frames and the
		// mechanism over 4 KB pages.
		Name: "pingpong-nomad-4k", Workload: "pingpong", Solution: "nomad",
		Scale: benchScale, Ops: 0.4,
		tune: func(c *mtm.Config) {
			c.AdmissionLearn = true
			c.AdmissionLanes = "default"
		},
	},
	{
		// Observability and memory: oracle, metrics and spans at interval
		// end, over sequential graph ranges of 4 KB pages.
		Name: "bfs-oracle-4k", Workload: "bfs", Solution: "mtm",
		Scale: benchScale, Ops: 0.2,
		tune: func(c *mtm.Config) {
			c.Fidelity = true
			c.Metrics = true
			c.Trace = &span.Config{}
		},
	},
}

// config returns the run configuration for seed. Parallelism stays at its
// default of GOMAXPROCS.
func (sp spec) config(seed int64) mtm.Config {
	c := mtm.DefaultConfig()
	c.Scale = sp.Scale
	c.Seed = seed
	c.OpsFactor = sp.Ops
	c.Faults = sp.Faults
	if sp.tune != nil {
		sp.tune(&c)
	}
	return c
}

func specNamed(name string) (spec, error) {
	for _, sp := range specs {
		if sp.Name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, specNames())
}

func specNames() []string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.Name
	}
	return names
}
