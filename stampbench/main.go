package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/stamp-go/stamp/internal/apps"
	"github.com/stamp-go/stamp/internal/apps/genome"
	"github.com/stamp-go/stamp/internal/apps/intruder"
	"github.com/stamp-go/stamp/internal/apps/kmeans"
	"github.com/stamp-go/stamp/internal/apps/labyrinth"
	"github.com/stamp-go/stamp/internal/apps/ssca2"
	"github.com/stamp-go/stamp/internal/apps/vacation"
	"github.com/stamp-go/stamp/internal/apps/yada"
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/server"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/factory"
	"github.com/stamp-go/stamp/internal/tm/trace"
)

// heldOutSeed is kept out of tuning: a later performance claim must also
// hold on it (seeds 1-10 were used while the benchmark was built).
const heldOutSeed = 7919

// setups is how many times a run performs its set-up; setup_s is the median.
const setups = 5

// workload is one named input set: a batch part (Table IV variants on both
// STM runtimes) and a closed-loop serving part against an in-process server.
type workload struct {
	name  string
	apps  []appSpec
	serve serveSpec
}

var workloads = []workload{
	{
		// Short transactions: fixed per-transaction cost dominates.
		name: "short-serve",
		apps: []appSpec{
			{"ssca2+", func(seed uint64) apps.App {
				return ssca2.New(ssca2.Config{Scale: 14, ProbInter: 1, ProbUnidirect: 1, MaxPathLen: 9, MaxParallel: 9, Seed: seed})
			}},
			{"kmeans-high+", func(seed uint64) apps.App {
				return kmeans.New(kmeans.Config{MinClusters: 15, MaxClusters: 15, Threshold: 0.05,
					Points: 16384, Dims: 24, GenCenters: 16, Seed: seed})
			}},
			{"genome+", func(seed uint64) apps.App {
				return genome.New(genome.Config{GeneLength: 512, SegmentLength: 32, Segments: 32768, Seed: seed})
			}},
		},
		serve: serveSpec{roPct: 50, warm: 100000, perClientPerSec: 15000},
	},
	{
		// Long transactions: validation, wasted attempts, allocation.
		name: "long-churn",
		apps: []appSpec{
			{"intruder+", func(seed uint64) apps.App {
				return intruder.New(intruder.Config{AttackPercent: 10, MaxPackets: 16, Flows: 4096, Seed: seed})
			}},
			{"vacation-high++/64", func(seed uint64) apps.App {
				return vacation.New(vacation.Config{QueriesPerTx: 4, QueryRange: 60, PercentUser: 90,
					Records: 1048576 / 64, Transactions: 4194304 / 64, Seed: seed})
			}},
			{"yada", func(seed uint64) apps.App {
				return yada.New(yada.Config{MinAngle: 20, Elements: 1264, Seed: seed})
			}},
			{"labyrinth++/32", func(seed uint64) apps.App {
				return labyrinth.New(labyrinth.Config{X: 512, Y: 512, Z: 7, Paths: 512 / 32, Seed: seed})
			}},
		},
		serve: serveSpec{roPct: 10, opBudget: 55000, noRecycle: true, warm: 100000, perClientPerSec: 16000},
	},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed of the workload's inputs and request streams")
	seconds := flag.Int("seconds", 30, "measured seconds, split between the batch and the serving part")
	traced := flag.Int("trace", 0, "1 = traced run: spans, the runtime tracer and per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "stampbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, err := runWorkload(*w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stampbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := printReport(*w, *seed, *seconds, *traced == 1, res); err != nil {
		fmt.Fprintf(os.Stderr, "stampbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	n     int // samples behind a median or percentile (0 = not a statistic)
}

// result is everything one run measured.
type result struct {
	attempted, failed int
	e2e, layer        []metric
	detail            []metric // tails beyond p99 and per-app medians, reported but not gated
	segRPS            []float64
	selfNs            map[string]int64
	spanFile, tmFile  string
}

// runWorkload performs the set-up setups times, then the batch part for half
// of seconds and the serving part with a request count sized for the other
// half.
func runWorkload(w workload, seed uint64, seconds time.Duration, traced bool) (result, error) {
	var res result
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)

	// Set-up: input generation, arena staging, system construction and store
	// population, repeated; the last repetition's apps and server are used
	// (the serving part builds its further server instances itself).
	var setupS []float64
	var built []builtApp
	var srv *server.Server
	rootSetup := rec.begin("set-up", 0, 0)
	for i := 0; i < setups; i++ {
		if srv != nil {
			if err := srv.Close(); err != nil {
				return res, fmt.Errorf("set-up server: %w", err)
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		built, srv, err = setUp(w, seed, rec, rootSetup)
		if err != nil {
			return res, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	rec.end(rootSetup)
	runtime.GC()

	rootBatch := rec.begin("batch", 0, 0)
	br, err := runBatch(built, seconds/2, traced, rec, rootBatch)
	rec.end(rootBatch)
	if err != nil {
		_ = srv.Close() // the batch error is the one to report
		return res, err
	}
	var makeS float64
	for _, b := range built {
		makeS += b.makeS
	}
	built = nil
	runtime.GC()

	perClient := max(int(seconds.Seconds()*float64(w.serve.perClientPerSec)/2), instances*segments)
	rootServe := rec.begin("serve", 0, 0)
	sr, err := runServe(srv, w.serve, seed, perClient, rec, rootServe)
	rec.end(rootServe)
	if err != nil {
		return res, err
	}

	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return res, fmt.Errorf("getrusage: %w", err)
	}

	res.attempted = br.attempted + sr.attempted
	res.failed = br.failed + sr.failed
	res.e2e = endToEnd(setupS, float64(ru.Maxrss)/1024, br, sr)
	res.detail = append(tails(sr), perApp(br)...)
	res.segRPS = sr.segRPS
	if traced {
		res.layer = perLayer(br, sr, makeS, &gc0, &gc1)
		spans := rec.snapshot()
		res.selfNs = selfTimes(spans)
		if res.spanFile, err = writeSpans(w, seed, spans); err != nil {
			return res, err
		}
		if res.tmFile, err = writeTMTrace(w, seed, br.events); err != nil {
			return res, err
		}
	}
	return res, nil
}

// setUp builds a workload's inputs and server once: each app's input is
// generated, staged into a fresh arena and both runtimes are constructed on
// it; the server is constructed and its store populated.
func setUp(w workload, seed uint64, rec *recorder, parent int) ([]builtApp, *server.Server, error) {
	built := make([]builtApp, 0, len(w.apps))
	for _, spec := range w.apps {
		id := rec.begin("make/"+spec.name, parent, 0)
		start := time.Now()
		a := spec.make(seed)
		makeS := time.Since(start).Seconds()
		rec.end(id)
		id = rec.begin("stage/"+spec.name, parent, 0)
		arena := mem.NewArena(a.ArenaWords())
		a.Setup(arena)
		for _, r := range runtimes {
			if _, err := factory.New(r.system, tm.Config{Arena: arena, Threads: batchThreads, EnableEarlyRelease: true}); err != nil {
				return nil, nil, fmt.Errorf("%s on %s: %w", spec.name, r.system, err)
			}
		}
		rec.end(id)
		built = append(built, builtApp{name: spec.name, app: a, makeS: makeS})
	}
	id := rec.begin("server", parent, 0)
	srv, err := newServer(w.serve, seed)
	rec.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up server: %w", err)
	}
	return built, srv, nil
}

// allLat concatenates one latency series across clients.
func allLat(sr serveRun, pick func(*clientLog) []float64) []float64 {
	var out []float64
	for _, lg := range sr.logs {
		out = append(out, pick(lg)...)
	}
	return out
}

// endToEnd computes the gated metrics.
func endToEnd(setupS []float64, rssMB float64, br batchRun, sr serveRun) []metric {
	client := allLat(sr, func(l *clientLog) []float64 { return l.client })
	query := allLat(sr, func(l *clientLog) []float64 { return l.query })
	rw := allLat(sr, func(l *clientLog) []float64 { return l.rw })
	out := []metric{
		{name: "setup_s", unit: "s", value: median(setupS), n: len(setupS)},
		{name: "peak_rss_mb", unit: "MB", value: rssMB},
	}
	for _, r := range runtimes {
		out = append(out, metric{name: r.key + "_s", unit: "s", value: sumOfMedians(br.rt[r.key].regions), n: br.rounds})
	}
	return append(out,
		metric{name: "rps", unit: "1/s", value: float64(len(client)) / sr.window.Seconds(), n: len(client)},
		metric{name: "p50_us", unit: "us", value: percentile(client, 50), n: len(client)},
		metric{name: "p99_us", unit: "us", value: percentile(client, 99), n: len(client)},
		metric{name: "query_p50_us", unit: "us", value: percentile(query, 50), n: len(query)},
		metric{name: "rw_p50_us", unit: "us", value: percentile(rw, 50), n: len(rw)},
	)
}

// perLayer computes the traced run's per-layer metrics, normalised per
// measured batch round where they are counts.
func perLayer(br batchRun, sr serveRun, makeS float64, gc0, gc1 *runtime.MemStats) []metric {
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name: name, unit: unit, value: v}) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rounds := float64(br.rounds)
	for _, r := range runtimes {
		t := br.rt[r.key]
		s := &t.stats
		commits := float64(s.Commits)
		barriers := float64(s.Loads + s.Stores)
		txFrac := ratio(float64(s.TxTimeNs), t.threadNs)
		add(r.key+".commits", "count", commits/rounds)
		add(r.key+".retries_per_tx", "count", ratio(float64(s.Aborts), commits))
		add(r.key+".loads_per_tx", "count", ratio(float64(s.Loads), commits))
		add(r.key+".stores_per_tx", "count", ratio(float64(s.Stores), commits))
		add(r.key+".useful_frac", "ratio", ratio(barriers, barriers+float64(s.Wasted)))
		add(r.key+".tx_frac", "ratio", txFrac)
		add(r.key+".nontx_frac", "ratio", 1-txFrac)
		add(r.key+".cm_wait_ms", "ms", float64(s.CMWaitNs)/1e6/rounds)
		add(r.key+".escalations", "count", float64(s.Escalations)/rounds)
		add(r.key+".alloc_words_per_tx", "words", ratio(float64(t.allocWords), commits))
	}
	lazy, norec := &br.rt["lazy"].stats, &br.rt["norec"].stats
	for _, c := range []trace.AbortCause{trace.CauseReadValidation, trace.CauseStripeLockBusy, trace.CauseWriteWrite} {
		add("lazy.abort."+c.String(), "count", float64(lazy.AbortCauses[c])/rounds)
	}
	add("norec.combined_frac", "ratio", ratio(float64(norec.CombinedCommits), float64(norec.Commits)))
	add("norec.combine_fallbacks", "count", float64(norec.CombineFallbacks)/rounds)
	add("norec.abort.seq-changed", "count", float64(norec.AbortCauses[trace.CauseSeqChanged])/rounds)

	var queryAborts uint64
	for _, row := range sr.stats.Blocks() {
		if row.Name == "stampd/query" {
			queryAborts = row.Aborts
		}
	}
	// The servers' counters cover their whole lives, warm-ups included.
	causes := sr.stats.AbortCauses()
	add("mv.query_aborts", "count", float64(queryAborts))
	add("mv.abort.mv-version-missing", "count", float64(causes[trace.CauseMVVersionMissing]))
	add("mv.abort.stripe-lock-busy", "count", float64(causes[trace.CauseStripeLockBusy]))
	add("srv.arena_hw_frac", "ratio", sr.hwFrac)
	add("srv.swaps", "count", float64(sr.swaps))
	add("srv.swap_pause_ms", "ms", float64(sr.swapPauseNs)/1e6)
	add("srv.submit_p50_us", "us", percentile(allLat(sr, func(l *clientLog) []float64 { return l.submit }), 50))
	add("srv.service_p50_us", "us", percentile(allLat(sr, func(l *clientLog) []float64 { return l.service }), 50))
	add("srv.handoff_p50_us", "us", percentile(allLat(sr, func(l *clientLog) []float64 { return l.handoff }), 50))
	add("srv.queue_hw", "count", float64(sr.queueHW))
	add("srv.rejected", "count", float64(sr.rejected))

	add("apps.make_s", "s", makeS)
	add("go.gc_cycles", "count", float64(gc1.NumGC-gc0.NumGC))
	add("go.gc_pause_ms", "ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6)
	// HeapSys (heap address space obtained from the OS) never shrinks, so
	// at the end of the run it is the heap's peak footprint.
	add("go.heap_peak_mb", "MB", float64(gc1.HeapSys)/(1<<20))
	return out
}

// tails reports the client latency beyond p99, which is not gated: it did
// not repeat between runs on the reference host.
func tails(sr serveRun) []metric {
	client := allLat(sr, func(l *clientLog) []float64 { return l.client })
	return []metric{
		{name: "p999_us", unit: "us", value: percentile(client, 99.9), n: len(client)},
		{name: "max_us", unit: "us", value: percentile(client, 100), n: len(client)},
	}
}

// perApp reports each app's median region time per runtime; these are the
// terms of lazy_s and norec_s.
func perApp(br batchRun) []metric {
	var out []metric
	for _, r := range runtimes {
		regions := br.rt[r.key].regions
		names := make([]string, 0, len(regions))
		for n := range regions {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			out = append(out, metric{name: r.key + "." + n + ".region_s", unit: "s", value: median(regions[n]), n: len(regions[n])})
		}
	}
	return out
}

// traceDir holds the traced run's span and runtime-tracer files, inside the
// checkout's ignored build directory.
const traceDir = ".bench_build/trace"

func writeSpans(w workload, seed uint64, spans []span) (string, error) {
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.spans.json", w.name, seed))
	return path, writeFile(path, func(f *os.File) error { return writeChrome(f, spans) })
}

// writeTMTrace writes the runtime tracer's sampled events of the last batch
// round as Chrome trace JSON.
func writeTMTrace(w workload, seed uint64, events []tm.TraceEvent) (string, error) {
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.tm.json", w.name, seed))
	return path, writeFile(path, func(f *os.File) error {
		return trace.WriteChrome(f, events, func(b int32) string { return tm.BlockName(tm.BlockID(b)) })
	})
}

func writeFile(path string, write func(*os.File) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// provenance describes the host and build behind a result.
func provenance(seed uint64) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "cpu": cpu,
		"go": runtime.Version(), "commit": commit, "seed": seed, "held_out_seed": heldOutSeed,
	}
}

// printReport prints the human-readable report, then the result object as
// the last line of standard output.
func printReport(w workload, seed uint64, seconds int, traced bool, res result) error {
	prov := provenance(seed)
	prov["workload"], prov["seconds"], prov["trace"] = w.name, seconds, traced
	line, _ := json.Marshal(prov) // strings and numbers always encode
	fmt.Printf("provenance %s\n", line)
	fmt.Printf("attempted %d failed %d (%.4f%%)\n", res.attempted, res.failed, 100*failureShare(res.failed, res.attempted))
	show := func(kind string, ms []metric) {
		for _, m := range ms {
			fmt.Printf("%-7s %-34s %14.6g %-6s", kind, m.name, m.value, m.unit)
			if m.n > 0 {
				fmt.Printf(" n=%d", m.n)
			}
			if strings.HasSuffix(m.name, "p99_us") {
				fmt.Printf(" (%d beyond)", beyond(m.n, 99))
			}
			if mv := moves[m.name]; mv != "" {
				fmt.Printf("  moves %s", mv)
			}
			fmt.Println()
		}
	}
	show("e2e", res.e2e)
	show("layer", res.layer)
	show("detail", res.detail)
	fmt.Printf("segment rps %.0f\n", res.segRPS)
	if traced {
		names := make([]string, 0, len(res.selfNs))
		for n := range res.selfNs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("self    %-34s %14.6f s\n", n, float64(res.selfNs[n])/1e9)
		}
		fmt.Printf("spans %s\nruntime trace %s\n", res.spanFile, res.tmFile)
		fmt.Println("tracing overhead: compare the e2e lines above with a --trace 0 run of the same seed")
	}
	metrics := make(map[string]map[string]any)
	pick := res.e2e
	if traced {
		pick = res.layer
	}
	for _, m := range pick {
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct": true, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	fmt.Println(string(out))
	return nil
}
