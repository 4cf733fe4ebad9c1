package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/jobs"
)

// controlMix is the fixed directive mix the clients draw from: small
// two-job evacuations, greedy and swap, sequential and batched, live and
// RDMA-native, some through a crashed destination.
var controlMix = []struct{ name, body string }{
	{"evac-greedy", `{"kind":"evacuate","jobs":2}`},
	{"evac-swap", `{"kind":"evacuate","placement":"swap","jobs":2}`},
	{"evac-swap-batched", `{"kind":"evacuate","placement":"swap","batched":true,"cap":4,"jobs":2}`},
	{"evac-swap-rdma", `{"kind":"evacuate","placement":"swap","batched":true,"mode":"rdma","jobs":2}`},
	{"evac-greedy-faulted", `{"kind":"evacuate","batched":true,"faulted":true,"jobs":2}`},
	{"evac-swap-rdma-faulted", `{"kind":"evacuate","placement":"swap","batched":true,"mode":"rdma","faulted":true,"jobs":2}`},
}

const (
	// controlClients is the closed loop's client count, one connection
	// each: no more than the two cores the benchmark is sized for.
	controlClients = 2
	// idempotentShare of POSTs re-send an earlier ID and directive.
	idempotentShare = 0.125
	// pollInterval separates the status polls of one job.
	pollInterval = time.Millisecond
	// jobTimeout bounds one job's wait for a terminal state.
	jobTimeout = 60 * time.Second
)

// daemon is a ninjad process on its own empty state directory.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	log    *os.File
}

// spawnNinjad starts ninjad with default flags on an empty state
// directory under dir, and returns once GET /healthz answers.
func spawnNinjad(bin, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "ninjad.log"))
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0",
		"-state-dir", filepath.Join(dir, "state"), "-addr-file", addrFile)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start ninjad: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait() // the exit is observed through d.exited
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for d.base == "" || !d.healthy() {
		select {
		case <-d.exited:
			logf.Close()
			return nil, fmt.Errorf("ninjad exited during start-up (see %s)", logf.Name())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("ninjad did not answer /healthz within 30s")
		}
		if d.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.base = "http://" + string(bytes.TrimSpace(b))
				continue
			}
		}
		time.Sleep(time.Millisecond)
	}
	return d, nil
}

// healthClient polls /healthz without keeping a connection open.
var healthClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}

func (d *daemon) healthy() bool {
	resp, err := healthClient.Get(d.base + "/healthz")
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// peakRSSMB reads the daemon's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
}

// stop drains ninjad with SIGTERM, kills it after 20s, and waits for it
// to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

// resultChecker holds the control workload's correctness state: every
// done job of one directive must carry a byte-identical result whose
// digest matches the recorded one. The directives carry no seed, so the
// recorded digests hold for every run seed.
type resultChecker struct {
	mu    sync.Mutex
	first map[string][]byte
}

func (rc *resultChecker) check(kind string, rec jobs.Record) error {
	if rec.State != jobs.Done {
		return fmt.Errorf("%w: job %s ended %s: %s", errCheck, rec.ID, rec.State, rec.Error)
	}
	got, err := compactResult(rec)
	if err != nil {
		return err
	}
	if want, ok := controlDigests[kind]; ok && digest(got) != want {
		return fmt.Errorf("%w: %s result digest %s, recorded %s", errCheck, kind, digest(got), want)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.first == nil {
		rc.first = map[string][]byte{}
	}
	if prev, ok := rc.first[kind]; !ok {
		rc.first[kind] = got
	} else if !bytes.Equal(prev, got) {
		return fmt.Errorf("%w: %s results differ between jobs", errCheck, kind)
	}
	return nil
}

// compactResult returns a job's result in compact JSON: the daemon
// indents it on the wire.
func compactResult(rec jobs.Record) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, rec.Result); err != nil || buf.Len() == 0 {
		return nil, fmt.Errorf("%w: job %s has no JSON result", errCheck, rec.ID)
	}
	return buf.Bytes(), nil
}

// issued is a finished directive a client may re-send.
type issued struct{ id, kind, body string }

// tally is what the closed loop counts and times.
type tally struct {
	attempted, failed, terminal, idemHits int
	submitMS, statusMS, listMS, doneMS    []float64
	queueMS, claimMS, runMS               []float64
	attempts                              []float64
}

// add merges o into t.
func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.terminal += o.terminal
	t.idemHits += o.idemHits
	t.submitMS = append(t.submitMS, o.submitMS...)
	t.statusMS = append(t.statusMS, o.statusMS...)
	t.listMS = append(t.listMS, o.listMS...)
	t.doneMS = append(t.doneMS, o.doneMS...)
	t.queueMS = append(t.queueMS, o.queueMS...)
	t.claimMS = append(t.claimMS, o.claimMS...)
	t.runMS = append(t.runMS, o.runMS...)
	t.attempts = append(t.attempts, o.attempts...)
}

// client is one closed-loop client with its own connection and tally.
type client struct {
	tally
	id      int
	http    *http.Client
	base    string
	rng     *rand.Rand
	rec     *recorder
	checker *resultChecker
	n       int
	done    []issued
}

func newClient(id int, seed int64, base string, rec *recorder, rc *resultChecker) *client {
	return &client{
		id:      id,
		http:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second},
		base:    base,
		rng:     rand.New(rand.NewSource(seed*controlClients + int64(id))),
		rec:     rec,
		checker: rc,
	}
}

// do sends one request, reads the whole body and records a span under
// parent.
func (c *client) do(parent int, name, method, path, body string) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != "" {
		rd = bytes.NewBufferString(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	c.rec.add(parent, name, start, end)
	return resp.StatusCode, data, end.Sub(start), err
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// loop runs closed-loop ops until the deadline.
func (c *client) loop(deadline time.Time) {
	for time.Now().Before(deadline) {
		c.attempted++
		var err error
		if len(c.done) > 0 && c.rng.Float64() < idempotentShare {
			err = c.resend()
		} else {
			err = c.directive()
		}
		if err != nil {
			c.failed++
		}
	}
	c.http.CloseIdleConnections()
}

// directive submits a new directive, polls it to a terminal state,
// checks its result and lists the jobs.
func (c *client) directive() error {
	kind := controlMix[c.rng.Intn(len(controlMix))]
	c.n++
	it := issued{id: fmt.Sprintf("c%d-%05d", c.id, c.n), kind: kind.name}
	it.body = fmt.Sprintf(`{"id":%q,"directive":%s}`, it.id, kind.body)
	start := time.Now()
	// Every request of one directive is a child of its span.
	span := c.rec.reserve(0, "control.directive")
	defer func() { c.rec.finish(span, start, time.Now()) }()
	status, _, d, err := c.do(span, "jobs.submit", http.MethodPost, "/jobs", it.body)
	if err != nil || status != http.StatusCreated {
		return fmt.Errorf("submit %s: status %d: %v", it.id, status, err)
	}
	c.submitMS = append(c.submitMS, ms(d))
	var rec jobs.Record
	for {
		status, data, d, err := c.do(span, "jobs.status", http.MethodGet, "/jobs/"+it.id, "")
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("status %s: %d: %v", it.id, status, err)
		}
		c.statusMS = append(c.statusMS, ms(d))
		rec = jobs.Record{}
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("status %s: %w", it.id, err)
		}
		if rec.State.Terminal() {
			break
		}
		if time.Since(start) > jobTimeout {
			return fmt.Errorf("job %s not terminal after %v", it.id, jobTimeout)
		}
		time.Sleep(pollInterval)
	}
	c.doneMS = append(c.doneMS, ms(time.Since(start)))
	c.terminal++
	c.attempts = append(c.attempts, float64(rec.Attempts))
	c.stamps(rec)
	checkErr := c.checker.check(kind.name, rec)
	if checkErr == nil {
		c.done = append(c.done, it)
	}
	status, _, d, err = c.do(span, "jobs.list", http.MethodGet, "/jobs", "")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("list: status %d: %v", status, err)
	}
	c.listMS = append(c.listMS, ms(d))
	return checkErr
}

// resend re-POSTs an earlier ID and directive: an idempotent hit that
// returns the finished record without running a simulation.
func (c *client) resend() error {
	it := c.done[c.rng.Intn(len(c.done))]
	c.idemHits++
	status, data, _, err := c.do(0, "jobs.resubmit", http.MethodPost, "/jobs", it.body)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("re-submit %s: status %d: %v", it.id, status, err)
	}
	var rec jobs.Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("re-submit %s: %w", it.id, err)
	}
	return c.checker.check(it.kind, rec)
}

// stamps reads the server-side phases of a finished job from the Wall
// stamps of its lifecycle events.
func (c *client) stamps(rec jobs.Record) {
	at := map[string]time.Time{}
	for _, ev := range rec.Events {
		if _, seen := at[ev.Kind]; !seen || ev.Kind == jobs.EventDone {
			at[ev.Kind] = ev.Wall
		}
	}
	sub, picked, running, done := at[jobs.EventSubmitted], at[jobs.EventPicked], at[jobs.EventRunning], at[jobs.EventDone]
	if sub.IsZero() || picked.IsZero() || running.IsZero() || done.IsZero() {
		return
	}
	c.queueMS = append(c.queueMS, ms(picked.Sub(sub)))
	c.claimMS = append(c.claimMS, ms(running.Sub(picked)))
	c.runMS = append(c.runMS, ms(done.Sub(running)))
}

// controlPhase is one closed-loop measurement against one daemon.
type controlPhase struct {
	tally
	secs  float64
	rssMB float64
}

// secsPerDirective is the phase's host time per terminal directive.
func (ph *controlPhase) secsPerDirective() float64 {
	return ph.secs / float64(max(ph.terminal, 1))
}

// runPhase drives d with the closed loop for the given duration.
func runPhase(d *daemon, seed int64, dur time.Duration, rec *recorder) (*controlPhase, error) {
	rc := &resultChecker{}
	var clients []*client
	for i := 0; i < controlClients; i++ {
		clients = append(clients, newClient(i, seed, d.base, rec, rc))
	}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop(deadline)
		}(c)
	}
	wg.Wait()
	ph := &controlPhase{secs: since(start)}
	for _, c := range clients {
		ph.add(&c.tally)
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	ph.rssMB = rss
	return ph, nil
}

// runControl measures a ninjad built from the repository.
func runControl(cfg config) (*result, error) {
	bin, err := filepath.Abs(cfg.ninjad)
	if err != nil {
		return nil, err
	}
	spawns := 0
	spawn := func() (*daemon, error) {
		spawns++
		return spawnNinjad(bin, filepath.Join(cfg.workDir, fmt.Sprintf("ninjad-%d", spawns)))
	}
	// Set-up is spawning ninjad on an empty state dir until /healthz
	// answers; the last of the timed spawns serves the measurement.
	var d *daemon
	setup, err := timeSetup(func() error {
		if d != nil {
			d.stop()
		}
		var err error
		d, err = spawn()
		return err
	})
	if err != nil {
		return nil, err
	}
	window := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		ph, err := runPhase(d, cfg.seed, window, nil)
		d.stop()
		if err != nil {
			return nil, err
		}
		return newResult(ph.attempted, ph.failed, map[string]metric{
			"setup_s":        {setup, "s"},
			"ops_per_s":      {float64(ph.terminal) / ph.secs, "1/s"},
			"latency_p50_ms": {median(ph.doneMS), "ms"},
			"peak_rss_mb":    {ph.rssMB, "MB"},
		}), nil
	}

	// Traced run: half the window untraced, then half with spans, each on
	// a fresh daemon so both phases start from an empty store.
	plain, err := runPhase(d, cfg.seed, window/2, nil)
	d.stop()
	if err != nil {
		return nil, err
	}
	if d, err = spawn(); err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced, err := runPhase(d, cfg.seed, window/2, rec)
	d.stop()
	if err != nil {
		return nil, err
	}
	out := zeroLayerMetrics()
	out["trace.overhead_frac"] = traced.secsPerDirective()/plain.secsPerDirective() - 1
	out["jobs.submit_p50_ms"] = median(traced.submitMS)
	out["jobs.status_p50_ms"] = median(traced.statusMS)
	out["jobs.list_p50_ms"] = median(traced.listMS)
	putTail(out, "jobs.done_tail_ms", traced.doneMS)
	out["jobs.queue_wait_ms_p50"] = median(traced.queueMS)
	out["jobs.claim_ms_p50"] = median(traced.claimMS)
	out["jobs.run_ms_p50"] = median(traced.runMS)
	out["jobs.attempts_per_job"] = mean(traced.attempts)
	out["jobs.idempotent_hits"] = float64(traced.idemHits)
	attempted := plain.attempted + traced.attempted
	failed := plain.failed + traced.failed
	out["fail_frac"] = float64(failed) / float64(max(attempted, 1))
	if err := addProbes(out, cfg.workDir); err != nil {
		return nil, err
	}
	if err := writeTrace(cfg, rec, nil); err != nil {
		return nil, err
	}
	return newResult(attempted, failed, layerResult(out)), nil
}
