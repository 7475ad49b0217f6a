package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/stamp-go/stamp/internal/apps/vacation"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/server"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/trace"
)

// Serving runs use stampd's shipped runtime (stm-mv) and store size with
// one worker and one closed-loop client per core of the reference host.
const (
	serveWorkers = 2
	serveClients = 2
	// records is the store size (rows per reservation table), the server's
	// default and vacation-high's -r.
	records = 16384
	// sampleEvery is the traced run's sampling interval: every
	// sampleEvery-th request of a client gets a request span and a
	// submit probe.
	sampleEvery = 64
	// instances is how many fresh servers a run drives, one after another,
	// each with the same store and request streams. Throughput on the
	// reference host settles into a fast or a slow mode per server epoch
	// (the same seed gave 86k or 56k req/s before its first swap), so a run
	// pools several epochs instead of drawing one.
	instances = 3
	// segments splits each instance's measured requests: clients meet at a
	// barrier and the heap is collected between segments.
	segments = 5
)

// serveSpec is a workload's serving part.
type serveSpec struct {
	roPct int // share of read-only queries; the rest follow vacation-high's mix
	// opBudget lowers the server's arena slack (requests it absorbs between
	// epoch swaps; 0 = the server default, which the fixed request count
	// stays below).
	opBudget int
	// noRecycle turns the runtime's transactional free lists off, so freed
	// words stay garbage until an epoch swap compacts the store.
	noRecycle bool
	// warm is each client's count of discarded warm-up requests. The store
	// grows under vacation's mix (customers accumulate bookings), so the
	// warm-up also carries it past its fastest, least steady early phase.
	warm int
	// perClientPerSec converts --seconds into each client's fixed measured
	// request count over all instances, so both sides of a comparison send
	// the same requests.
	perClientPerSec int
}

func newServer(spec serveSpec, seed uint64) (*server.Server, error) {
	return server.New(server.Options{Workers: serveWorkers, Records: records, OpBudget: spec.opBudget, NoRecycle: spec.noRecycle, Seed: seed})
}

// reqGen draws one client's request stream: roPct% read-only queries, the
// rest vacation-high's read-write mix (-n4 -q60 -u90), from a seeded stream.
type reqGen struct {
	r     *rng.Rand
	roPct int
	items []vacation.Item
}

const (
	queriesPerTx = 4  // vacation -n
	queryRange   = 60 // vacation -q (percent of records)
	userPct      = 90 // vacation -u
)

func newReqGen(seed uint64, client, roPct int) *reqGen {
	return &reqGen{r: rng.New(seed ^ 0x7365727665 ^ uint64(client+1)<<40), roPct: roPct}
}

// next returns the next request. The returned request and its item slice
// are reused by the following call, which is safe for Do: the server is done
// with a request before it answers.
func (g *reqGen) next(req *server.Request) {
	span := records * queryRange / 100
	*req = server.Request{}
	items := func() []vacation.Item {
		g.items = g.items[:0]
		for i := 0; i < queriesPerTx; i++ {
			g.items = append(g.items, vacation.Item{Typ: g.r.Intn(vacation.NumTypes), ID: g.r.Intn(span) + 1})
		}
		return g.items
	}
	if g.r.Intn(100) < g.roPct {
		req.Op, req.Items = server.OpQuery, items()
		return
	}
	switch action := g.r.Intn(100); {
	case action < userPct:
		req.Op, req.Customer, req.Items = server.OpReserve, g.r.Intn(span)+1, items()
	case action < userPct+(100-userPct)/2:
		req.Op, req.Customer = server.OpCancel, g.r.Intn(span)+1
	default:
		req.Op = server.OpUpdate
		for i := 0; i < queriesPerTx; i++ {
			req.Updates = append(req.Updates, vacation.Update{
				Typ: g.r.Intn(vacation.NumTypes), ID: g.r.Intn(span) + 1,
				Add: g.r.Intn(2) == 0, Num: g.r.Intn(5) + 1, Price: g.r.Intn(450) + 50,
			})
		}
	}
}

// clientLog is one client's measured requests.
type clientLog struct {
	client  []float64 // µs around Server.Do, successful requests
	service []float64 // µs of Response.Latency (admission to completion)
	handoff []float64 // µs of client latency minus Response.Latency
	query   []float64 // client µs of read-only queries
	rw      []float64 // client µs of read-write requests
	submit  []float64 // µs inside Submit of the traced run's probes
	failed  int
	torn    uint64
	probes  int   // probe requests sent
	bad     error // first failure that is not an ordinary one
}

// serveRun is the outcome of a workload's serving part.
type serveRun struct {
	logs      []*clientLog
	window    time.Duration // Σ measured segment durations
	segRPS    []float64     // completed requests per second of each segment
	attempted int
	failed    int
	// Gauges over the measured requests: epoch swaps and their pause, the
	// admission queue's high-water and rejections, and the highest arena
	// Used/Cap seen (sampled during the traced run, read at the end).
	swaps       uint64
	swapPauseNs int64
	queueHW     int64
	rejected    uint64
	hwFrac      float64
	stats       tm.Stats
}

// runServe drives first, then instances-1 fresh servers built the same
// way, and pools what they measured: latency samples, measured time,
// attempts and failures, swap counts and transactional statistics.
func runServe(first *server.Server, spec serveSpec, seed uint64, n int, rec *recorder, root int) (serveRun, error) {
	var all serveRun
	var stats []*tm.ThreadStats
	srv := first
	for i := 0; i < instances; i++ {
		if i > 0 {
			var err error
			if srv, err = newServer(spec, seed); err != nil {
				return all, fmt.Errorf("server: %w", err)
			}
		}
		id := rec.begin("instance", root, 0)
		sr, err := serveOnce(srv, spec, seed, n/instances, rec, id)
		rec.end(id)
		if err != nil {
			return all, err
		}
		all.logs = append(all.logs, sr.logs...)
		all.window += sr.window
		all.segRPS = append(all.segRPS, sr.segRPS...)
		all.attempted += sr.attempted
		all.failed += sr.failed
		all.swaps += sr.swaps
		all.swapPauseNs += sr.swapPauseNs
		all.queueHW = max(all.queueHW, sr.queueHW)
		all.rejected += sr.rejected
		all.hwFrac = max(all.hwFrac, sr.hwFrac)
		stats = append(stats, &sr.stats.Total)
	}
	all.stats = tm.Aggregate(stats)
	return all, nil
}

// serveOnce drives srv with serveClients closed-loop clients, each sending
// spec.warm discarded requests and then n measured ones. It closes srv,
// then checks the correctness gate: no torn snapshot, no lost request, the
// store invariants and no abort of unknown cause.
func serveOnce(srv *server.Server, spec serveSpec, seed uint64, n int, rec *recorder, root int) (serveRun, error) {
	var sr serveRun
	per := n / segments
	n = per * segments
	// reached[0] counts clients through the warm-up, reached[s+1] through
	// measured segment s; the coordinator opens segment s by closing release[s].
	reached := make([]sync.WaitGroup, segments+1)
	release := make([]chan struct{}, segments)
	for s := range reached {
		reached[s].Add(serveClients)
	}
	for s := range release {
		release[s] = make(chan struct{})
	}
	sr.logs = make([]*clientLog, serveClients)
	for c := 0; c < serveClients; c++ {
		lg := &clientLog{client: make([]float64, 0, n), service: make([]float64, 0, n), handoff: make([]float64, 0, n)}
		sr.logs[c] = lg
		go func(c int) {
			g := newReqGen(seed, c, spec.roPct)
			var req server.Request
			for i := 0; i < spec.warm; i++ {
				g.next(&req)
				srv.Do(&req)
			}
			reached[0].Done()
			for s := 0; s < segments; s++ {
				<-release[s]
				for i := s * per; i < (s+1)*per; i++ {
					g.next(&req)
					lg.do(srv, &req, i, rec, root, c)
				}
				reached[s+1].Done()
			}
		}(c)
	}
	reached[0].Wait()
	before := srv.Snapshot()
	stopSampler := sampleGauges(srv, before.Swaps, &sr, rec, root)
	for s := 0; s < segments; s++ {
		runtime.GC()
		start := time.Now()
		close(release[s])
		reached[s+1].Wait()
		d := time.Since(start)
		sr.window += d
		sr.segRPS = append(sr.segRPS, float64(serveClients*per)/d.Seconds())
	}
	stopSampler()
	for _, lg := range sr.logs {
		sr.attempted += n + lg.probes
		sr.failed += lg.failed
	}

	// Every accepted request (probes included) must be answered: wait for
	// the gauges to account for all of them.
	total := uint64(serveClients * (spec.warm + n))
	for _, lg := range sr.logs {
		total += uint64(lg.probes)
	}
	deadline := time.Now().Add(10 * time.Second)
	var after server.Gauges
	for {
		after = srv.Snapshot()
		if after.Served+after.Failed+after.Rejected >= total || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	sr.hwFrac = max(sr.hwFrac, float64(after.ArenaUsed)/float64(after.ArenaCap))
	sr.swaps = after.Swaps - before.Swaps
	sr.swapPauseNs = after.SwapPauseNs - before.SwapPauseNs
	sr.queueHW = after.QueueHW
	sr.rejected = after.Rejected
	if err := srv.Close(); err != nil {
		return sr, fmt.Errorf("server: %w", err)
	}
	if answered := after.Served + after.Failed + after.Rejected; answered != total {
		return sr, fmt.Errorf("correctness: %d requests sent, %d answered", total, answered)
	}
	var torn uint64
	for _, lg := range sr.logs {
		torn += lg.torn
		if lg.bad != nil {
			return sr, fmt.Errorf("correctness: request failed: %w", lg.bad)
		}
	}
	if torn != 0 {
		return sr, fmt.Errorf("correctness: %d torn query snapshots", torn)
	}
	if err := srv.CheckInvariants(); err != nil {
		return sr, fmt.Errorf("correctness: store invariants: %w", err)
	}
	sr.stats = srv.TMStats()
	if n := sr.stats.AbortCauses()[trace.CauseUnknown]; n != 0 {
		return sr, fmt.Errorf("correctness: %d aborts of unknown cause", n)
	}
	return sr, nil
}

// do sends the client's i-th measured request and logs its outcome. In the
// traced run every sampleEvery-th request is a span, preceded by a timed
// Submit of a read-only probe (Do hides its own Submit).
func (lg *clientLog) do(srv *server.Server, req *server.Request, i int, rec *recorder, root, c int) {
	sid := 0
	if rec != nil && i%sampleEvery == 0 {
		sid = rec.begin("request", root, c+1)
		probe := &server.Request{Op: server.OpQuery, Items: []vacation.Item{{Typ: i % vacation.NumTypes, ID: i%records + 1}}}
		t0 := time.Now()
		err := srv.Submit(probe)
		t1 := time.Now()
		rec.add("submit", sid, c+1, t0, t1)
		lg.probes++
		if err != nil {
			lg.failed++
		} else {
			lg.submit = append(lg.submit, us(t1.Sub(t0)))
		}
	}
	t0 := time.Now()
	resp := srv.Do(req)
	t1 := time.Now()
	if sid != 0 {
		rec.add("service", sid, c+1, t1.Add(-resp.Latency), t1)
		rec.end(sid)
	}
	if resp.Err != nil {
		lg.failed++
		if !isOrdinary(resp.Err) && lg.bad == nil {
			lg.bad = resp.Err
		}
		return
	}
	lg.torn += resp.Torn
	lat := us(t1.Sub(t0))
	lg.client = append(lg.client, lat)
	lg.service = append(lg.service, us(resp.Latency))
	lg.handoff = append(lg.handoff, lat-us(resp.Latency))
	if req.Op == server.OpQuery {
		lg.query = append(lg.query, lat)
	} else {
		lg.rw = append(lg.rw, lat)
	}
}

// sampleGauges polls the server's gauges in the traced run, recording the
// arena high-water and an instant event per epoch swap seen between two
// polls. The returned stop function waits for the poller to exit.
func sampleGauges(srv *server.Server, swaps uint64, sr *serveRun, rec *recorder, root int) (stop func()) {
	if rec == nil {
		return func() {}
	}
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			g := srv.Snapshot()
			sr.hwFrac = max(sr.hwFrac, float64(g.ArenaUsed)/float64(g.ArenaCap))
			for ; swaps < g.Swaps; swaps++ {
				rec.instant("epoch-swap", root, 0)
			}
		}
	}()
	return func() {
		close(quit)
		<-exited
	}
}

// isOrdinary reports whether a request error is an ordinary, counted
// failure rather than a correctness violation.
func isOrdinary(err error) bool {
	return errors.Is(err, server.ErrQueueFull) || errors.Is(err, server.ErrArenaFull) ||
		errors.Is(err, server.ErrRetriesExhausted) || errors.Is(err, server.ErrStalled) ||
		errors.Is(err, server.ErrDeadline)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
