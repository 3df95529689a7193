package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"lard"
	"lard/internal/engine"
	"lard/internal/obs"
)

// client drives a lard-server over loopback HTTP, one request at a time.
type client struct {
	base string
	hc   *http.Client
	rec  *recorder
}

func newClient(base string, rec *recorder) *client {
	return &client{base: base, hc: &http.Client{Timeout: 120 * time.Second}, rec: rec}
}

// do sends one request inside a child span of parent and decodes a JSON
// body into out (when non-nil and the status is 2xx).
func (c *client) do(parent *span, method, path string, body, out any) (int, error) {
	sp := c.rec.child(parent, "http."+method+" "+spanRoute(path))
	defer sp.done()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// spanRoute collapses ids out of a path so spans group by route.
func spanRoute(path string) string {
	parts := strings.Split(strings.SplitN(path, "?", 2)[0], "/")
	for i, p := range parts {
		if len(p) >= 32 {
			parts[i] = "{id}"
		}
	}
	return strings.Join(parts, "/")
}

// waitTerminal follows an SSE stream until stop accepts a frame, and returns
// that frame with the instant it arrived.
func (c *client) waitTerminal(parent *span, path string, stop func(engine.Event) bool) (engine.Event, time.Time, error) {
	sp := c.rec.child(parent, "sse.wait "+spanRoute(path))
	defer sp.done()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return engine.Event{}, time.Time{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return engine.Event{}, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return engine.Event{}, time.Time{}, fmt.Errorf("GET %s: HTTP %d", spanRoute(path), resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev engine.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return engine.Event{}, time.Time{}, err
		}
		if stop(ev) {
			return ev, time.Now(), nil
		}
	}
	if err := sc.Err(); err != nil {
		return engine.Event{}, time.Time{}, err
	}
	return engine.Event{}, time.Time{}, errors.New("event stream ended before its terminal frame")
}

// runRequest is the POST /v1/runs body.
type runRequest = engine.Request

// freshOutcome is one fresh run as the client saw it: the POST -> terminal
// frame latency, when that frame arrived, and the result.
type freshOutcome struct {
	id      string
	latency time.Duration
	arrived time.Time
	result  *lard.Result
}

// freshRun submits a run that is not yet stored and waits for its terminal
// frame, then fetches its result.
func (c *client) freshRun(req runRequest) (freshOutcome, error) {
	root := c.rec.root("request:fresh-run")
	defer root.done()
	start := time.Now()
	var view engine.JobView
	code, err := c.do(root, http.MethodPost, "/v1/runs", req, &view)
	if err != nil {
		return freshOutcome{}, err
	}
	if err := httpOutcome(code, ""); err != nil {
		return freshOutcome{}, fmt.Errorf("POST /v1/runs: %w", err)
	}
	out := freshOutcome{id: view.ID}
	if code == http.StatusAccepted {
		ev, at, err := c.waitTerminal(root, "/v1/runs/"+view.ID+"/events", func(ev engine.Event) bool { return ev.Terminal })
		if err != nil {
			return out, err
		}
		out.latency, out.arrived = at.Sub(start), at
		if err := httpOutcome(code, ev.State); err != nil {
			return out, fmt.Errorf("run %s: %w (%s)", view.ID, err, ev.Error)
		}
		if code, err = c.do(root, http.MethodGet, "/v1/runs/"+view.ID, nil, &view); err != nil {
			return out, err
		}
		if err := httpOutcome(code, ""); err != nil {
			return out, fmt.Errorf("GET run: %w", err)
		}
	} else {
		out.latency, out.arrived = time.Since(start), time.Now()
	}
	if view.Result == nil {
		return out, fmt.Errorf("run %s: no result", view.ID)
	}
	out.result = view.Result
	return out, nil
}

// hit resubmits a stored run and expects a 200 with the cached result.
func (c *client) hit(req runRequest) (time.Duration, *lard.Result, error) {
	root := c.rec.root("request:hit")
	defer root.done()
	start := time.Now()
	var view engine.JobView
	code, err := c.do(root, http.MethodPost, "/v1/runs", req, &view)
	lat := time.Since(start)
	if err != nil {
		return lat, nil, err
	}
	if code != http.StatusOK || !view.Cached || view.Result == nil {
		return lat, nil, fmt.Errorf("resubmit of a stored run: HTTP %d, cached=%v", code, view.Cached)
	}
	return lat, view.Result, nil
}

// campaignTable is the GET /v1/campaigns/{id}/table body.
type campaignTable struct {
	ID       string             `json:"id"`
	Metric   string             `json:"metric"`
	Table    string             `json:"table"`
	Averages map[string]float64 `json:"averages"`
}

// campaign submits a campaign, waits for its campaign-terminal frame and
// fetches its table. It returns the POST -> table latency.
func (c *client) campaign(spec lard.CampaignSpec) (time.Duration, engine.CampaignView, campaignTable, error) {
	root := c.rec.root("request:campaign")
	defer root.done()
	start := time.Now()
	var view engine.CampaignView
	var tbl campaignTable
	code, err := c.do(root, http.MethodPost, "/v1/campaigns", spec, &view)
	if err != nil {
		return 0, view, tbl, err
	}
	if err := httpOutcome(code, ""); err != nil {
		return 0, view, tbl, fmt.Errorf("POST /v1/campaigns: %w", err)
	}
	ev, _, err := c.waitTerminal(root, "/v1/campaigns/"+view.ID+"/events",
		func(ev engine.Event) bool { return ev.Terminal && ev.Job == "" })
	if err != nil {
		return 0, view, tbl, err
	}
	if err := httpOutcome(code, ev.State); err != nil {
		return 0, view, tbl, fmt.Errorf("campaign %s: %w", view.ID, err)
	}
	code, err = c.do(root, http.MethodGet, "/v1/campaigns/"+view.ID+"/table?metric=time", nil, &tbl)
	if err != nil {
		return 0, view, tbl, err
	}
	if err := httpOutcome(code, ""); err != nil {
		return 0, view, tbl, fmt.Errorf("GET table: %w", err)
	}
	return time.Since(start), view, tbl, nil
}

// scrape fetches /metrics as series -> value ("name{labels}" keys).
func (c *client) scrape() (map[string]float64, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// seriesSum adds every series of family name whose labels contain all of
// the given label fragments (such as `op="get"`).
func seriesSum(m map[string]float64, name string, labels ...string) float64 {
	var s float64
	for k, v := range m {
		fam, lbl, _ := strings.Cut(k, "{")
		if fam != name {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				match = false
				break
			}
		}
		if match {
			s += v
		}
	}
	return s
}

// meanMS is a histogram family's mean in milliseconds from its _sum and
// _count series.
func meanMS(m map[string]float64, name string, labels ...string) float64 {
	n := seriesSum(m, name+"_count", labels...)
	if n == 0 {
		return 0
	}
	return 1000 * seriesSum(m, name+"_sum", labels...) / n
}

// serviceLayers derives the engine, server, store and bus metrics of a
// traced server from the growth of its /metrics since base (nil = since
// start) and from the span trees of the given fresh runs, which it also
// returns.
func (c *client) serviceLayers(base map[string]float64, fresh []freshOutcome) (map[string]float64, []obs.TraceView, error) {
	m, err := c.scrape()
	if err != nil {
		return nil, nil, err
	}
	for k := range m {
		m[k] -= base[k]
	}
	out := map[string]float64{
		"engine.queue_wait_ms": meanMS(m, "lard_queue_wait_seconds"),
		"engine.dispatch_ms":   meanMS(m, "lard_dispatch_seconds"),
		"server.post_ms":       meanMS(m, "lard_http_request_seconds", `route="POST /v1/runs"`),
		"server.table_ms":      meanMS(m, "lard_http_request_seconds", `route="GET /v1/campaigns/{id}/table"`),
		"resultstore.get_ms":   meanMS(m, "lard_store_op_seconds", `op="get"`),
		"resultstore.put_ms":   meanMS(m, "lard_store_op_seconds", `op="put"`),
	}
	// Resubmits of runs the engine's job registry still holds never reach
	// the store, so the fraction is 0 when no lookup hit it at all.
	out["resultstore.disk_hit_frac"] = 0
	if hits := m["lard_store_mem_hits_total"] + m["lard_store_disk_hits_total"]; hits > 0 {
		out["resultstore.disk_hit_frac"] = m["lard_store_disk_hits_total"] / hits
	}
	var delivery time.Duration
	var trees []obs.TraceView
	for _, f := range fresh {
		var tv obs.TraceView
		code, err := c.do(nil, http.MethodGet, "/v1/runs/"+f.id+"/trace", nil, &tv)
		if err != nil {
			return nil, nil, err
		}
		if code != http.StatusOK || tv.Root.End == nil {
			return nil, nil, fmt.Errorf("trace of run %s: HTTP %d", f.id, code)
		}
		trees = append(trees, tv)
		delivery += f.arrived.Sub(*tv.Root.End)
	}
	if len(fresh) > 0 {
		out["bus.sse_delivery_ms"] = ms(delivery) / float64(len(fresh))
	}
	return out, trees, nil
}

// serverProc is a lard-server child process.
type serverProc struct {
	cmd         *exec.Cmd
	base, debug string
	exited      chan struct{}
	log         *os.File
}

// live holds the started servers that are not yet stopped, so a run that
// overstays its budget can still stop them before exiting.
var live sync.Map

// killLive kills every server still running and waits for each to exit.
func killLive() {
	live.Range(func(k, _ any) bool {
		s := k.(*serverProc)
		_ = s.cmd.Process.Kill() // already gone is fine
		<-s.exited
		return true
	})
}

// freePort returns a loopback port that was free a moment ago.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// startServer starts lard-server with default flags plus a fresh store
// under dir and an in-memory bound below the stored set; traced servers
// add -trace and a pprof listener. It returns once /healthz answers.
func startServer(bin, dir string, maxEntries int, traced bool) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", "127.0.0.1:" + port, "-store", filepath.Join(dir, "store"), "-max-entries", strconv.Itoa(maxEntries)}
	s := &serverProc{base: "http://127.0.0.1:" + port, exited: make(chan struct{})}
	if traced {
		dport, err := freePort()
		if err != nil {
			return nil, err
		}
		args = append(args, "-trace", "-debug-addr", "127.0.0.1:"+dport)
		s.debug = "http://127.0.0.1:" + dport
	}
	// A restart on the same store appends to the same log.
	if s.log, err = os.OpenFile(filepath.Join(dir, "server.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, err
	}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
	// The server must not outlive this process, however it ends.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		s.log.Close()
		return nil, fmt.Errorf("start lard-server: %w", err)
	}
	live.Store(s, true)
	go func() {
		_ = s.cmd.Wait() // the exit status is reported through the log
		close(s.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			s.log.Close()
			return nil, errors.New("lard-server exited during start-up (see its server.log)")
		default:
		}
		if resp, err := hc.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.stop()
	return nil, errors.New("lard-server did not become healthy within 30s")
}

// alive reports whether the server process is still running.
func (s *serverProc) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// stop terminates the server gracefully and waits for it to exit.
func (s *serverProc) stop() {
	if s == nil {
		return
	}
	live.Delete(s)
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.log.Close()
}

// profile fetches a CPU profile of the given length from the pprof
// listener.
func (s *serverProc) profile(seconds int) ([]byte, error) {
	resp, err := http.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", s.debug, seconds))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("pprof profile: HTTP %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// memStats reads TotalAlloc and GCCPUFraction from the pprof listener's
// heap page.
func (s *serverProc) memStats() (totalAlloc, gcFrac float64, err error) {
	resp, err := http.Get(s.debug + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			totalAlloc, _ = strconv.ParseFloat(v, 64)
		}
		if v, ok := strings.CutPrefix(sc.Text(), "# GCCPUFraction = "); ok {
			gcFrac, _ = strconv.ParseFloat(v, 64)
		}
	}
	return totalAlloc, gcFrac, sc.Err()
}

// rssSampler tracks a process's peak resident set by sampling it.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

// sampleRSS samples the resident set of process pid ("self" for this one)
// every few milliseconds until peak is called.
func sampleRSS(pid string) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		peak := procStatus(pid, "VmRSS")
		for {
			select {
			case <-s.stop:
				s.done <- max(peak, procStatus(pid, "VmRSS"))
				return
			case <-t.C:
				peak = max(peak, procStatus(pid, "VmRSS"))
			}
		}
	}()
	return s
}

// peak stops sampling and returns the highest resident set seen, in MB.
func (s *rssSampler) peak() float64 {
	close(s.stop)
	return <-s.done
}

// procStatus reads one kB field (VmHWM, VmRSS) of /proc/<pid>/status in MB.
func procStatus(pid, field string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// procCPU returns a process's user+system CPU seconds from /proc/<pid>/stat.
func procCPU(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 per second).
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	u, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (u + st) / 100
}

func (s *serverProc) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }
