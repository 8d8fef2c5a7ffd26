package main

import (
	"math/rand/v2"

	"regsim/internal/exper"
	"regsim/internal/verify"
	"regsim/internal/workload"
)

// checkOracle passes a seeded sample of the workload's specs through the
// differential oracle (pipeline against the sequential reference
// interpreter), outside the timed window. Each mismatch fails the run.
func checkOracle(cfg config, rep *report, specs []exper.Spec) {
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x04ac1e))
	for i := 0; i < cfg.oracle && len(specs) > 0; i++ {
		spec := specs[rng.IntN(len(specs))]
		p, err := workload.Build(spec.Bench)
		if err == nil {
			err = verify.Differential(spec.Config(), p, verify.Options{Budget: cfg.budget})
		}
		rep.check(err == nil, "oracle %+v: %v", spec, err)
	}
}
