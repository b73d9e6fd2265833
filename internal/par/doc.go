// Package par is the loop interface every algorithm in this repository is
// written against, and the goroutine runner that executes it. Algorithms
// request a degree of parallelism per loop — serial, single-processor,
// all-processors: exactly the three choices the paper's §3.3 describes — and
// charge abstract cost units (≈ memory references); the Runtime they were
// handed decides how to run and what to charge. It has two implementations:
//
//   - Exec (NewExec), here: loops really run on goroutines, bounded by one
//     token bucket so that nested loops, and loops from many callers at once,
//     degrade gracefully to inline execution instead of deadlocking or
//     oversubscribing. A Serial loop runs in order on its caller, any other
//     on all workers, and nothing is charged. A *par.Exec also selects the
//     serving kernels of core and deltastep. cmd/ssspd's catalog makes one
//     and runs every generation of every graph on it.
//
//   - mta.Sim: loops execute serially (and therefore deterministically)
//     while the simulated MTA-2 accounts their work and span; the paper's
//     tables are reproduced on it. Nothing the daemons link imports it, and
//     par imports nothing of this repository.
//
// See DESIGN.md §3 ("System inventory") for how this package fits the system.
package par
