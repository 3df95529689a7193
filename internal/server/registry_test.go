package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lard"
	"lard/internal/resultstore"
)

// TestSchemesEndpoint pins the discovery contract: every registered scheme
// (the five paper schemes plus EHC) is listed with its parameters and a
// ready-to-submit example, in paper order.
func TestSchemesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/schemes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Count   int               `json:"count"`
		Schemes []lard.SchemeInfo `json:"schemes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, s := range body.Schemes {
		kinds = append(kinds, s.Kind)
	}
	want := []string{"S-NUCA", "R-NUCA", "VR", "ASR", "RT", "EHC"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("schemes = %v, want %v", kinds, want)
	}
	if body.Count != len(want) {
		t.Fatalf("count = %d, want %d", body.Count, len(want))
	}
	for _, s := range body.Schemes {
		if s.Description == "" {
			t.Errorf("scheme %q has no description", s.Kind)
		}
		if s.Example.Kind != s.Kind {
			t.Errorf("scheme %q example has kind %q", s.Kind, s.Example.Kind)
		}
		if err := lard.ValidateScheme(s.Example); err != nil {
			t.Errorf("scheme %q example does not validate: %v", s.Kind, err)
		}
	}
}

// TestEHCCampaignEndToEnd is the pluggability acceptance test: the EHC
// scheme — registered entirely from its own policy file and facade
// registration — runs through the campaign API alongside a paper scheme
// with no server, harness or engine edits, and renders in the table.
func TestEHCCampaignEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	spec := lard.CampaignSpec{
		Benchmarks: []string{"BARNES"},
		Schemes:    []lard.Scheme{lard.SNUCA(), lard.ExpectedHitCount(3)},
		Options:    lard.Options{Cores: 16, OpsScale: 0.02},
	}
	code, v := postCampaign(t, ts, spec)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit = %d, want 202 or 200", code)
	}
	v = pollCampaign(t, ts, v.ID)
	if !v.Complete || v.Counts[StatusFailed] != 0 {
		t.Fatalf("campaign did not complete cleanly: %+v", v)
	}
	labels := map[string]bool{}
	for _, m := range v.Members {
		labels[m.Scheme] = true
	}
	if !labels["EHC-3"] || !labels["S-NUCA"] {
		t.Fatalf("member labels = %v, want S-NUCA and EHC-3", labels)
	}

	resp, err := http.Get(ts.URL + "/v1/campaigns/" + v.ID + "/table")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table = %d, want 200", resp.StatusCode)
	}
	var tbl struct {
		Table    string             `json:"table"`
		Averages map[string]float64 `json:"averages"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.Table, "EHC-3") {
		t.Fatalf("table does not render the EHC column:\n%s", tbl.Table)
	}
	if avg, ok := tbl.Averages["EHC-3"]; !ok || avg <= 0 {
		t.Fatalf("averages = %v, want a positive EHC-3 column", tbl.Averages)
	}
}

// TestASRLevelValidation pins the misconfiguration guard at the service
// boundary: a replication probability outside [0,1], or one the paper never
// labels, is rejected on both the run and campaign paths instead of
// silently simulating an unlabeled level under the "ASR" caption.
func TestASRLevelValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, level := range []float64{-0.5, 1.5, 0.3} {
		b, _ := json.Marshal(RunRequest{
			Benchmark: "BARNES",
			Scheme:    lard.Scheme{Kind: "ASR", ASRLevel: level},
			Options:   lard.Options{Cores: 16, OpsScale: 0.02},
		})
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("ASR level %v submit = %d, want 400", level, resp.StatusCode)
		}
		if !strings.Contains(string(msg), "0.25") {
			t.Fatalf("ASR level %v error should name the allowed levels, got %s", level, msg)
		}
	}
	code, _ := postCampaign(t, ts, lard.CampaignSpec{
		Benchmarks: []string{"BARNES"},
		Schemes:    []lard.Scheme{lard.Scheme{Kind: "ASR", ASRLevel: 0.33}},
		Options:    lard.Options{Cores: 16, OpsScale: 0.02},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("campaign with bad ASR level = %d, want 400", code)
	}
}

// TestUnknownKindRejected: an unregistered kind names the registered ones.
func TestUnknownKindRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	b, _ := json.Marshal(RunRequest{
		Benchmark: "BARNES",
		Scheme:    lard.Scheme{Kind: "L33T-NUCA"},
		Options:   lard.Options{Cores: 16},
	})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind = %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(msg), "EHC") || !strings.Contains(string(msg), "S-NUCA") {
		t.Fatalf("error should list the registered kinds, got %s", msg)
	}
}

// TestMetricsEndpoint scrapes /metrics after a completed run and checks the
// families the satellite promised: run lifecycle counters, store traffic,
// campaign state and worker-pool depth, in the text exposition format.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	code, job := post(t, ts, smallRun(41))
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit = %d", code)
	}
	if v := poll(t, ts, job.ID); v.Status != StatusDone {
		t.Fatalf("run finished %q: %s", v.Status, v.Error)
	}
	if code, _ := postCampaign(t, ts, lard.CampaignSpec{
		Benchmarks: []string{"BARNES"},
		Schemes:    []lard.Scheme{lard.LocalityAware(3)},
		Options:    lard.Options{Cores: 16, OpsScale: 0.02, Seed: 41},
	}); code != http.StatusOK {
		// Every member was just computed by the direct run above, so the
		// campaign must complete synchronously from the store.
		t.Fatalf("campaign submit = %d, want 200", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q, want text/plain exposition", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE lard_runs_started_total counter",
		"lard_runs_started_total 1",
		"lard_runs_completed_total 1",
		"lard_runs_failed_total 0",
		"lard_jobs{status=\"done\"} 1",
		"lard_campaigns_registered_total 1",
		"lard_campaign_members{status=\"done\"} 1",
		"lard_workers 2",
		"# TYPE lard_store_computes_total counter",
		"lard_store_computes_total 1",
		"lard_store_evictions_total 0",
		"lard_queue_cap 8",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestShutdownFinishesInFlightCampaignMembers covers graceful shutdown in
// the middle of a campaign fan-out: the member a worker is simulating
// completes and is recorded done, while still-queued members fail
// deterministically with the shutdown error instead of hanging in "queued".
func TestShutdownFinishesInFlightCampaignMembers(t *testing.T) {
	st, err := resultstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan string, 8)
	release := make(chan struct{})
	s, err := New(Config{Store: st, Workers: 1, QueueDepth: 8, Run: blockingTestRun(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	spec := lard.CampaignSpec{
		Benchmarks: []string{"BARNES"},
		Schemes:    []lard.Scheme{lard.SNUCA(), lard.LocalityAware(3), lard.ExpectedHitCount(3)},
		Options:    lard.Options{Cores: 16, OpsScale: 0.02},
	}
	code, v := postCampaign(t, ts, spec)
	if code != http.StatusAccepted || v.Total != 3 {
		t.Fatalf("submit = %d %+v", code, v)
	}

	// One member is in a worker; two are queued behind it.
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no member ever started")
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	// Let Shutdown commit to stopping before the in-flight run finishes.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	view, ok, err := s.Engine().Campaign(v.ID)
	if err != nil || !ok {
		t.Fatalf("campaign view: ok=%v err=%v", ok, err)
	}
	if view.Counts[StatusDone] != 1 {
		t.Fatalf("in-flight member should finish, got %+v", view)
	}
	if view.Counts[StatusFailed] != 2 {
		t.Fatalf("queued members should fail on shutdown, got %+v", view)
	}
	for _, m := range view.Members {
		if m.Status == StatusFailed && !strings.Contains(m.Error, "shutting down") {
			t.Fatalf("failed member %s should carry the shutdown error, got %q", m.ID, m.Error)
		}
	}
}
