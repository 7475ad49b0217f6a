package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/stamp-go/stamp/internal/apps"
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/factory"
)

// batchThreads is the worker count of every batch region (nproc on the
// reference host, so no region has more workers than cores).
const batchThreads = 2

// traceEvery is the runtime tracer's sampling interval in the traced run:
// one atomic block in traceEvery per thread records its events.
const traceEvery = 64

// runtimes are the two STM protocols every batch app runs on, keyed by the
// prefix of their metrics.
var runtimes = []struct{ key, system string }{
	{"lazy", "stm-lazy"},
	{"norec", "stm-norec"},
}

// appSpec is one Table IV variant, built from its application Config with
// the run's seed.
type appSpec struct {
	name string
	make func(seed uint64) apps.App
}

// rtTotals accumulates one runtime's measured repetitions.
type rtTotals struct {
	regions    map[string][]float64 // app -> region wall seconds, one per repetition
	stats      tm.ThreadStats       // merged over every measured repetition
	threadNs   float64              // Σ threads × region wall
	allocWords int                  // Σ arena high-water growth across regions
}

// batchRun is the outcome of a workload's batch part.
type batchRun struct {
	rounds    int // measured rounds (one repetition of every app on every runtime)
	rt        map[string]*rtTotals
	attempted int
	failed    int
	events    []tm.TraceEvent // runtime tracer events of the last round (traced run)
}

// repResult is one repetition of one app on one runtime.
type repResult struct {
	wall       time.Duration
	stats      tm.Stats
	allocWords int
	events     []tm.TraceEvent
}

// runRep stages a into a fresh arena, runs its parallel region on system
// and verifies the output. A region that unwinds with arena exhaustion is
// an ordinary failure (returned as an error matching mem.ErrArenaFull); a
// failed Verify is a correctness violation (errVerify).
func runRep(a apps.App, system string, traced bool, rec *recorder, parent int) (repResult, error) {
	id := rec.begin("setup", parent, 0)
	arena := mem.NewArena(a.ArenaWords())
	a.Setup(arena)
	cfg := tm.Config{Arena: arena, Threads: batchThreads, EnableEarlyRelease: true}
	if traced {
		cfg.Trace = traceEvery
	}
	sys, err := factory.New(system, cfg)
	if err != nil {
		return repResult{}, fmt.Errorf("%s on %s: %w", a.Name(), system, err)
	}
	team := thread.NewTeam(batchThreads)
	rec.end(id)

	runtime.GC()
	used := arena.Used()
	id = rec.begin("region", parent, 0)
	start := time.Now()
	err = runRegion(a, sys, team)
	wall := time.Since(start)
	rec.end(id)
	if err != nil {
		return repResult{}, err
	}
	res := repResult{wall: wall, stats: sys.Stats(), allocWords: arena.Used() - used, events: tm.TraceEvents(sys)}

	id = rec.begin("verify", parent, 0)
	err = a.Verify(arena)
	rec.end(id)
	if err != nil {
		return repResult{}, fmt.Errorf("%w: %s on %s: %v", errVerify, a.Name(), system, err)
	}
	return res, nil
}

// errVerify marks an output that failed its application oracle.
var errVerify = errors.New("verify failed")

// runRegion runs the parallel region, turning an arena-exhaustion unwind
// into an error the way the harness does; any other panic propagates.
func runRegion(a apps.App, sys tm.System, team *thread.Team) (err error) {
	defer func() {
		if r := recover(); r != nil {
			af, ok := r.(tm.AllocFailure)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("%s on %s: %w", a.Name(), sys.Name(), af.Err)
		}
	}()
	a.Run(sys, team)
	return nil
}

// runBatch runs one discarded warm-up round, then measured rounds until
// budget has elapsed (at least minRounds). Every round runs each runtime's
// apps back to back, so the two runtimes see the same drift.
func runBatch(built []builtApp, budget time.Duration, traced bool, rec *recorder, root int) (batchRun, error) {
	const minRounds = 3
	br := batchRun{rt: make(map[string]*rtTotals)}
	for _, r := range runtimes {
		br.rt[r.key] = &rtTotals{regions: make(map[string][]float64)}
	}
	var deadline time.Time
	for round := 0; ; round++ {
		warm := round == 0
		if round == 1 {
			deadline = time.Now().Add(budget)
		}
		if !warm && br.rounds >= minRounds && time.Now().After(deadline) {
			return br, nil
		}
		name := "round"
		if warm {
			name = "warm-up"
		}
		rid := rec.begin(name, root, 0)
		var events []tm.TraceEvent
		for _, r := range runtimes {
			tot := br.rt[r.key]
			sid := rec.begin(r.key, rid, 0)
			for _, b := range built {
				pid := rec.begin(r.key+"/"+b.name, sid, 0)
				res, err := runRep(b.app, r.system, traced, rec, pid)
				rec.end(pid)
				if !warm {
					br.attempted++
				}
				switch {
				case errors.Is(err, errVerify):
					return br, err
				case err != nil:
					if !errors.Is(err, mem.ErrArenaFull) {
						return br, err
					}
					if !warm {
						br.failed++
					}
					continue
				case warm:
					continue
				}
				tot.regions[b.name] = append(tot.regions[b.name], res.wall.Seconds())
				tot.stats.Merge(&res.stats.Total)
				tot.threadNs += float64(batchThreads) * float64(res.wall.Nanoseconds())
				tot.allocWords += res.allocWords
				events = append(events, res.events...)
			}
			rec.end(sid)
		}
		rec.end(rid)
		if !warm {
			br.rounds++
			br.events = events
		}
	}
}

// builtApp is an app whose input has been generated.
type builtApp struct {
	name  string
	app   apps.App
	makeS float64 // input-generation time of the last set-up
}
