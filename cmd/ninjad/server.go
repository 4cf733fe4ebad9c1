package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/jobs"
	"repro/internal/simfarm"
)

// HTTP server timeouts. A client gets readHeaderTimeout to send its
// request headers and a keep-alive connection is closed after idleTimeout
// without a request, so slow or stalled clients cannot pin connections
// (slowloris). There is no write timeout: a GET /jobs/{id}/events?follow=1
// stream stays open for as long as the job runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// daemon ties the durable job manager to its HTTP surface.
type daemon struct {
	mgr  *jobs.Manager
	srv  *http.Server
	ln   net.Listener
	logf func(string, ...any)
}

type daemonConfig struct {
	Addr        string
	StateDir    string
	Workers     int
	Lease       time.Duration
	MaxAttempts int
	Backoff     time.Duration
	Logf        func(string, ...any)
}

func newDaemon(cfg daemonConfig) (*daemon, error) {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	mgr, err := jobs.New(jobs.Config{
		Dir:         cfg.StateDir,
		Handler:     runDirective,
		Workers:     cfg.Workers,
		Lease:       cfg.Lease,
		MaxAttempts: cfg.MaxAttempts,
		Backoff:     cfg.Backoff,
		Logf:        cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	d := &daemon{mgr: mgr, logf: cfg.Logf}
	d.srv = &http.Server{
		Handler:           d.routes(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	d.ln = ln
	return d, nil
}

// start recovers persisted jobs and begins serving. It returns once the
// listener is accepting; serve errors after that go to logf.
func (d *daemon) start() error {
	if err := d.mgr.Start(); err != nil {
		d.ln.Close()
		return err
	}
	go func() {
		if err := d.srv.Serve(d.ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			d.logf("ninjad: serve: %v", err)
		}
	}()
	return nil
}

// addr is the bound listen address ("127.0.0.1:41873" under -addr :0).
func (d *daemon) addr() string { return d.ln.Addr().String() }

// shutdown drains gracefully: the HTTP listener closes, then the job
// manager drains to a checkpointable boundary under ctx's deadline.
func (d *daemon) shutdown(ctx context.Context) error {
	httpCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(httpCtx)
	return d.mgr.Stop(ctx)
}

func (d *daemon) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", d.handleHealth)
	mux.HandleFunc("POST /jobs", d.handleSubmit)
	mux.HandleFunc("GET /jobs", d.handleList)
	mux.HandleFunc("GET /jobs/{id}", d.handleGet)
	mux.HandleFunc("POST /jobs/{id}/cancel", d.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", d.handleEvents)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (d *daemon) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":     true,
		"owner":  d.mgr.Owner(),
		"pid":    os.Getpid(),
		"counts": d.mgr.Counts(),
	})
}

// submitRequest wraps a directive with its optional client-supplied ID.
type submitRequest struct {
	// ID makes submission idempotent: re-POSTing the same ID+directive
	// after a lost response returns the existing job instead of a
	// duplicate. Empty gets a generated ID.
	ID        string          `json:"id,omitempty"`
	Directive json.RawMessage `json:"directive"`
}

func (d *daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var req submitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("request body: %w", err))
		return
	}
	if len(req.Directive) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("request body: directive is required"))
		return
	}
	// Validate before accepting: a directive that cannot parse must be
	// refused at the door, not persisted and failed asynchronously.
	if _, err := simfarm.DecodeSpec(req.Directive); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rec, created, err := d.mgr.Submit(req.ID, req.Directive)
	var mismatch *jobs.MismatchError
	switch {
	case errors.As(err, &mismatch):
		writeErr(w, http.StatusConflict, err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, rec)
}

func (d *daemon) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs":   d.mgr.List(),
		"counts": d.mgr.Counts(),
	})
}

func (d *daemon) handleGet(w http.ResponseWriter, r *http.Request) {
	rec, err := d.mgr.Get(r.PathValue("id"))
	if errors.Is(err, jobs.ErrNotFound) {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (d *daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	rec, err := d.mgr.Cancel(r.PathValue("id"))
	if errors.Is(err, jobs.ErrNotFound) {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleEvents streams the job's event trail as NDJSON. ?since=N resumes
// after sequence number N; ?follow=1 keeps the stream open, tailing live
// events until the job reaches a terminal state.
func (d *daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	since := 0
	if s := r.URL.Query().Get("since"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad since=%q", s))
			return
		}
		since = n
	}
	follow := r.URL.Query().Get("follow") != ""

	replay, tail, off, err := d.mgr.Watch(id, since)
	if errors.Is(err, jobs.ErrNotFound) {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	defer off()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for _, ev := range replay {
		_ = enc.Encode(ev)
	}
	if flusher != nil {
		flusher.Flush()
	}
	if !follow || tail == nil {
		return
	}
	for {
		select {
		case ev, ok := <-tail:
			if !ok {
				return // terminal: trail complete
			}
			_ = enc.Encode(ev)
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}
