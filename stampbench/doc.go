// Command stampbench is the repository's end-to-end benchmark. One run
// measures one workload in its own process, checks the program's outputs,
// and prints its metrics; the last line of standard output is a JSON object
// with the keys correct, attempted, failed and metrics.
//
//	bash stampbench/run.sh --workload short-serve --seed 1 --seconds 30 --trace 0
//
// run.sh builds the command from the checkout's sources into .bench_build
// (Go caches included) and runs it from the checkout root. --trace 0 prints
// the end-to-end metrics; --trace 1 is a separate traced run that prints the
// per-layer metrics, enables the runtime's sampled tracer for the batch
// regions, and writes the benchmark's own spans (Chrome trace JSON) to
// .bench_build/trace.
//
// # Workloads
//
// Each workload has a batch part (Table IV variants, built from their
// application Config with the run's seed, each run on stm-lazy and on
// stm-norec at 2 threads) and a serving part (an in-process stampd server,
// stm-mv, 2 workers, 2 closed-loop clients each sending a fixed request
// count). The batch part runs a discarded warm-up round, then rounds of
// every app on every runtime for half of --seconds. The serving part drives
// three fresh servers in turn (the set-up's and two more built the same
// way); each gets discarded warm-up requests, then its share of the
// measured requests in barrier-separated segments, and the samples of all
// three are pooled.
//
//   - short-serve: ssca2+, kmeans-high+ and genome+ (short transactions,
//     so the fixed cost per transaction dominates), and a 50% read-only mix
//     at the server's defaults, which stays below the first epoch swap.
//   - long-churn: intruder+, vacation-high++ at 1/64 scale, yada and
//     labyrinth++ at 1/32 scale (long read sets, aborted work, allocation),
//     and a 10% read-only mix on a lowered OpBudget with recycling off, so
//     each server's fixed request count crosses one epoch swap.
//
// Both workloads print every end-to-end and every per-layer metric; the
// twin of each mechanism is the other workload (fixed per-transaction cost
// versus long transactions; no swap versus swaps).
//
// # Correctness gate
//
// Every app repetition must pass its Verify. After serving, no query may
// see a torn snapshot, no request may be lost, the store invariants must
// hold and no abort may have the unknown cause. A violation exits nonzero
// without printing metrics. Ordinary failures (an app region or request
// that hits arena exhaustion, a rejected or stalled request) are counted
// in failed against attempted.
//
// # Seeds
//
// --seed makes every input and request stream. Seeds 1-10 were used while
// the benchmark was tuned; heldOutSeed is kept back for later claims.
//
// # Left out
//
//   - bayes: bayes and bayes+ at scale 1 panic in Setup with
//     "mem: arena exhausted (cap 267072 words, need 267074)" (bayes+: 1053504
//     vs 1053505) from internal/apps/bayes/adtree.go, and bayes's total work
//     depends on the interleaving.
//   - Other runtimes: the simulated HTMs, the hybrids and stm-adaptive are
//     not measured.
//   - Containers: their self time cannot be separated from outside the
//     program until the program has its own per-phase timers.
//   - Open loop: time.Sleep has a 1.08 ms floor on the reference host for
//     any wait from 20 µs to 500 µs, so a fixed-rate generator measures its
//     own bursts; a spinning pacer would take one of the two cores.
//   - Epoch swaps with recycling on: under vacation's mix the live store
//     grows about 6 words per request, and once the compacted store is
//     above the swap threshold every request triggers another swap (a
//     swap storm: 89 swaps and 3.65 s of pause in 4 s at OpBudget 8192).
//     long-churn therefore runs the recycling-off arm, whose garbage makes
//     swaps periodic.
//
// # Reference host
//
// 2 vCPUs (nproc 2, GOMAXPROCS 2), Intel Xeon, Go 1.24, Linux. Two busy
// threads on this host slow each other by up to 2x, which is why every
// gated figure is a median or a pooled percentile over seconds of work.
package main
