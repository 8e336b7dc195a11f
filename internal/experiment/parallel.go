package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// RunMany executes every scenario and returns the results in input order.
// workers caps the number of scenarios in flight at once; zero means
// GOMAXPROCS, one forces strictly serial execution.
//
// Parallel execution is bit-identical to serial execution: each scenario run
// owns its scheduler and derives every random stream from the scenario seed
// alone, so runs share no mutable state. The first error in input order is
// returned regardless of completion order, keeping failures deterministic
// too.
func RunMany(scenarios []Scenario, workers int) ([]Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	results := make([]Result, len(scenarios))
	errs := make([]error, len(scenarios))

	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				// Fail fast: once any point has errored, stop claiming new
				// work (in-flight points finish; the first error by index
				// is still reported).
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(scenarios) {
					return
				}
				// Run borrows an idle run bundle for the point, so a
				// worker's consecutive builds reuse the topology backing
				// arrays and the engine objects (each domain dies with its
				// run), and so does the next sweep.
				if results[i], errs[i] = Run(scenarios[i]); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
