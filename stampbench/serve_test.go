package main

import "testing"

// TestServeOncePassesGate drives a small closed loop through the traced
// path (probes, spans, gauge sampler) and checks the pooled accounting.
func TestServeOncePassesGate(t *testing.T) {
	spec := serveSpec{roPct: 50, warm: 200}
	srv, err := newServer(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	const n = 640
	sr, err := serveOnce(srv, spec, 1, n, rec, rec.begin("serve", 0, 0))
	if err != nil {
		t.Fatalf("correctness gate: %v", err)
	}
	probes := 0
	samples := 0
	for _, lg := range sr.logs {
		probes += lg.probes
		samples += len(lg.client)
	}
	if want := serveClients * n / sampleEvery; probes != want {
		t.Errorf("probes = %d, want %d", probes, want)
	}
	if sr.attempted != serveClients*n+probes || sr.failed != 0 || samples != serveClients*n {
		t.Errorf("attempted %d failed %d samples %d, want %d, 0, %d",
			sr.attempted, sr.failed, samples, serveClients*n+probes, serveClients*n)
	}
	if len(sr.segRPS) != segments || sr.window <= 0 {
		t.Errorf("segments %d window %v", len(sr.segRPS), sr.window)
	}
	if self := selfTimes(rec.snapshot()); self["submit"] <= 0 || self["service"] <= 0 {
		t.Errorf("sampled request spans missing: %v", self)
	}
}
