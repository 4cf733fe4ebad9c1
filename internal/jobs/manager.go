package jobs

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Handler executes one job attempt. It receives a snapshot of the record
// (safe to keep), must honor ctx cancellation at whatever boundaries it
// can, and may emit trail events through emit (Seq and Wall are filled in
// by the manager). A nil error commits the returned result; an error
// consumes one attempt.
type Handler func(ctx context.Context, rec Record, emit func(Event)) (json.RawMessage, error)

// Config tunes a Manager. The zero value of every field except Dir and
// Handler selects the documented default.
type Config struct {
	// Dir is the state directory (required).
	Dir string
	// Handler executes job attempts (required).
	Handler Handler
	// Workers is the number of concurrent executors (default 2).
	Workers int
	// Lease is how long a claim stays valid without renewal (default
	// 30s). Workers renew at Lease/3; a lease that lapses marks its
	// holder dead and the job reclaimable.
	Lease time.Duration
	// MaxAttempts bounds executions per job, counting the first
	// (default 3).
	MaxAttempts int
	// Backoff is the base retry delay, doubling per failed attempt
	// (default 500ms, capped at Backoff<<6).
	Backoff time.Duration
	// Poll is the worker idle re-scan interval (default 100ms).
	Poll time.Duration
	// HardGrace bounds how long Stop waits for handlers after cancelling
	// their contexts (default 5s).
	HardGrace time.Duration
	// Owner names this daemon incarnation in leases and events (default
	// "<hostname>-<pid>-<random>").
	Owner string
	// Logf receives operational log lines (default: discarded).
	Logf func(format string, args ...any)
	// Now is the wall clock, overridable for tests (default time.Now).
	Now func() time.Time
}

// Manager owns the durable job lifecycle: idempotent submission, leased
// pick-up, asynchronous execution with bounded retry, cancellation,
// crash recovery and graceful drain. All disk writes happen under the
// manager's lock via the atomic Store, so the state directory always
// holds a consistent prefix of the lifecycle.
type Manager struct {
	cfg   Config
	store *Store
	owner string
	now   func() time.Time
	logf  func(string, ...any)

	mu       sync.Mutex
	recs     map[string]*Record
	active   map[string]context.CancelFunc // jobs with a live in-process worker
	watchers map[string][]chan Event

	wake chan struct{} // pokes idle workers after submit/requeue
	stop chan struct{} // closed by Stop/Abandon: stop claiming new work
	dead atomic.Bool   // Abandon: simulate kill -9 — no further disk writes

	wg          sync.WaitGroup
	stopOnce    sync.Once
	abandonOnce sync.Once
	started     bool
}

// New opens the state directory and builds a manager. Call Start to
// recover persisted jobs and begin executing.
func New(cfg Config) (*Manager, error) {
	if cfg.Handler == nil {
		return nil, errors.New("jobs: Config.Handler is required")
	}
	store, err := NewStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 30 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 500 * time.Millisecond
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 100 * time.Millisecond
	}
	if cfg.HardGrace <= 0 {
		cfg.HardGrace = 5 * time.Second
	}
	if cfg.Owner == "" {
		host, _ := os.Hostname()
		cfg.Owner = fmt.Sprintf("%s-%d-%s", host, os.Getpid(), randomHex(4))
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Manager{
		cfg:      cfg,
		store:    store,
		owner:    cfg.Owner,
		now:      cfg.Now,
		logf:     cfg.Logf,
		recs:     make(map[string]*Record),
		active:   make(map[string]context.CancelFunc),
		watchers: make(map[string][]chan Event),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}, nil
}

// Owner returns the manager's incarnation name.
func (m *Manager) Owner() string { return m.owner }

// Dir returns the state directory.
func (m *Manager) Dir() string { return m.store.Dir() }

// Start recovers the state directory and launches the workers and the
// lease janitor. Recovery implements the restart invariants: pending
// jobs are re-queued as they are; picked jobs past their lease are
// reclaimed (an unexpired foreign lease is left for the janitor, which
// reclaims it the moment it lapses); running jobs are orphans of a dead
// incarnation — a state directory belongs to one daemon at a time — so
// they are marked interrupted and re-queued for deterministic
// re-execution.
func (m *Manager) Start() error {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return errors.New("jobs: manager already started")
	}
	m.started = true

	recs, skipped, err := m.store.LoadAll()
	if err != nil {
		m.mu.Unlock()
		return err
	}
	for _, name := range skipped {
		m.logf("jobs: skipping corrupt record %s", name)
	}
	now := m.now()
	var pending, reclaimed, interrupted int
	for _, r := range recs {
		m.recs[r.ID] = r
		switch r.State {
		case Pending:
			pending++
		case Picked:
			if r.LeaseUntil.After(now) {
				continue // lease still live; the janitor reclaims on expiry
			}
			r.Owner, r.LeaseUntil = "", time.Time{}
			m.eventLocked(r, Event{Kind: EventReclaimed,
				Detail: "stale lease at boot; re-queued"})
			if err := m.transitionLocked(r, Pending); err != nil {
				m.mu.Unlock()
				return err
			}
			reclaimed++
		case Running:
			r.Interrupts++
			r.Owner, r.LeaseUntil = "", time.Time{}
			m.eventLocked(r, Event{Kind: EventInterrupted,
				Detail: "found running at boot (previous daemon died); re-queued for deterministic re-execution"})
			if err := m.transitionLocked(r, Pending); err != nil {
				m.mu.Unlock()
				return err
			}
			interrupted++
		}
	}
	m.mu.Unlock()
	if pending+reclaimed+interrupted > 0 {
		m.logf("jobs: recovery: %d pending re-queued, %d stale picked reclaimed, %d interrupted running re-queued",
			pending, reclaimed, interrupted)
	}

	for i := 0; i < m.cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	m.wg.Add(1)
	go m.janitor()
	m.signal()
	return nil
}

// Submit records a job durably and queues it. An empty id is assigned a
// random one. Submission is idempotent: re-submitting an existing ID with
// the same directive returns the current record with created=false;
// a different directive under the same ID returns *MismatchError. The
// record is on disk before Submit returns — an accepted job survives any
// crash from this point on.
func (m *Manager) Submit(id string, directive json.RawMessage) (Record, bool, error) {
	if m.dead.Load() {
		return Record{}, false, errors.New("jobs: manager is down")
	}
	if m.stopping() {
		return Record{}, false, errors.New("jobs: manager is draining")
	}
	if id == "" {
		id = "j-" + randomHex(6)
	}
	if !ValidID(id) {
		return Record{}, false, fmt.Errorf("jobs: invalid job id %q", id)
	}
	dir, err := compactJSON(directive)
	if err != nil {
		return Record{}, false, fmt.Errorf("jobs: %s: directive is not valid JSON: %w", id, err)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.recs[id]; ok {
		if !bytes.Equal(r.Directive, dir) {
			return Record{}, false, &MismatchError{ID: id}
		}
		return r.Clone(), false, nil
	}
	now := m.now()
	r := &Record{ID: id, State: Pending, Directive: dir, Submitted: now, Updated: now}
	m.eventLocked(r, Event{Kind: EventSubmitted, Detail: "accepted"})
	if err := m.persistLocked(r); err != nil {
		return Record{}, false, err
	}
	m.recs[id] = r
	m.signal()
	return r.Clone(), true, nil
}

// Get returns a snapshot of the job.
func (m *Manager) Get(id string) (Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.recs[id]
	if !ok {
		return Record{}, fmt.Errorf("jobs: %s: %w", id, ErrNotFound)
	}
	return r.Clone(), nil
}

// List returns a summary of every job, in submission order. The full
// record of one job is Get's.
func (m *Manager) List() []Summary {
	m.mu.Lock()
	out := make([]Summary, 0, len(m.recs))
	for _, r := range m.recs {
		out = append(out, Summary{ID: r.ID, State: r.State, Submitted: r.Submitted,
			Updated: r.Updated, Attempts: r.Attempts, Error: r.Error})
	}
	m.mu.Unlock()
	slices.SortFunc(out, func(a, b Summary) int {
		if c := a.Submitted.Compare(b.Submitted); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	})
	return out
}

// Counts tallies jobs per state.
func (m *Manager) Counts() map[State]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[State]int)
	for _, r := range m.recs {
		out[r.State]++
	}
	return out
}

// Cancel requests cancellation. A pending job cancels immediately; a
// picked or running job is flagged and its handler context cancelled, and
// the worker commits the cancellation at its next boundary. Cancelling a
// terminal job is a no-op returning the record.
func (m *Manager) Cancel(id string) (Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.recs[id]
	if !ok {
		return Record{}, fmt.Errorf("jobs: %s: %w", id, ErrNotFound)
	}
	switch r.State {
	case Pending:
		r.CancelRequested = true
		r.NotBefore = time.Time{}
		m.eventLocked(r, Event{Kind: EventCancelled, Detail: "cancelled while pending"})
		if err := m.transitionLocked(r, Cancelled); err != nil {
			return Record{}, err
		}
	case Picked, Running:
		if !r.CancelRequested {
			r.CancelRequested = true
			if err := m.persistLocked(r); err != nil {
				return Record{}, err
			}
			if cancel := m.active[id]; cancel != nil {
				cancel()
			}
		}
	}
	return r.Clone(), nil
}

// Watch returns the job's recorded events after fromSeq plus, for a
// non-terminal job, a channel tailing new ones. The channel closes when
// the job reaches a terminal state (or on Abandon). Call off() when done.
// A slow consumer that lets the 256-event buffer fill drops events —
// the durable record keeps the complete trail.
func (m *Manager) Watch(id string, fromSeq int) (replay []Event, tail <-chan Event, off func(), err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.recs[id]
	if !ok {
		return nil, nil, nil, fmt.Errorf("jobs: %s: %w", id, ErrNotFound)
	}
	for _, ev := range r.Events {
		if ev.Seq > fromSeq {
			replay = append(replay, ev)
		}
	}
	if r.State.Terminal() {
		return replay, nil, func() {}, nil
	}
	ch := make(chan Event, 256)
	m.watchers[id] = append(m.watchers[id], ch)
	off = func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		ws := m.watchers[id]
		for i, w := range ws {
			if w == ch {
				m.watchers[id] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
	}
	return replay, ch, off, nil
}

// Stop drains the manager: no new jobs are claimed, in-flight handlers
// run to their next checkpointable boundary (normally completion). If ctx
// expires first, the in-flight handler contexts are cancelled and their
// jobs are persisted back to pending as interrupted — the state directory
// then holds a clean restart point, exactly as after a crash, except
// nothing was lost un-persisted. Stop only errors if a handler ignores
// its context past HardGrace.
func (m *Manager) Stop(ctx context.Context) error {
	m.stopOnce.Do(func() { close(m.stop) })
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	m.mu.Lock()
	for _, cancel := range m.active {
		if cancel != nil {
			cancel()
		}
	}
	m.mu.Unlock()
	select {
	case <-done:
		return nil
	case <-time.After(m.cfg.HardGrace):
		return fmt.Errorf("jobs: drain: handlers still running %v after cancel", m.cfg.HardGrace)
	}
}

// Abandon simulates kill -9 for tests and last-resort teardown: workers
// are cut loose, handler contexts cancelled, and — critically — nothing
// further is written to the state directory, so the on-disk records stay
// exactly as the "crash" left them. A later Manager over the same
// directory exercises the real recovery path.
func (m *Manager) Abandon() {
	m.abandonOnce.Do(func() {
		m.dead.Store(true)
		m.stopOnce.Do(func() { close(m.stop) })
		m.mu.Lock()
		for _, cancel := range m.active {
			if cancel != nil {
				cancel()
			}
		}
		for id, ws := range m.watchers {
			for _, ch := range ws {
				close(ch)
			}
			delete(m.watchers, id)
		}
		m.mu.Unlock()
	})
}

// --- internals ---

func (m *Manager) stopping() bool {
	select {
	case <-m.stop:
		return true
	default:
		return false
	}
}

func (m *Manager) signal() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// persistLocked saves the record unless the manager is "dead" (Abandon):
// a dead manager must leave the directory exactly as the crash did.
func (m *Manager) persistLocked(r *Record) error {
	if m.dead.Load() {
		return nil
	}
	return m.store.Save(r)
}

// transitionLocked validates and commits a state change durably. Callers
// mutate the record's auxiliary fields first so one atomic save covers
// the whole transition.
func (m *Manager) transitionLocked(r *Record, to State) error {
	if !CanTransition(r.State, to) {
		return &TransitionError{ID: r.ID, From: r.State, To: to}
	}
	r.State = to
	r.Updated = m.now()
	if err := m.persistLocked(r); err != nil {
		return err
	}
	if to.Terminal() {
		for _, ch := range m.watchers[r.ID] {
			close(ch)
		}
		delete(m.watchers, r.ID)
	}
	return nil
}

// eventLocked appends a trail event (stamping Seq and Wall) and notifies
// watchers. It does not persist — the caller's next transitionLocked (or
// the job's completion) carries the event to disk.
func (m *Manager) eventLocked(r *Record, ev Event) {
	ev.Seq = len(r.Events) + 1
	ev.Wall = m.now()
	r.Events = append(r.Events, ev)
	for _, ch := range m.watchers[r.ID] {
		select {
		case ch <- ev:
		default: // slow consumer: drop; the record keeps the full trail
		}
	}
}

// appendEvent is the handler emit callback target.
func (m *Manager) appendEvent(id string, ev Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.recs[id]; ok {
		m.eventLocked(r, ev)
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		if m.stopping() {
			return
		}
		id, wait := m.claim()
		if id == "" {
			timer := time.NewTimer(wait)
			select {
			case <-m.stop:
				timer.Stop()
				return
			case <-m.wake:
				timer.Stop()
			case <-timer.C:
			}
			continue
		}
		m.runOne(id)
	}
}

// claim picks the oldest eligible pending job and moves it to picked
// under a fresh lease. It returns ("", wait) when nothing is claimable,
// where wait is bounded by the nearest retry backoff gate.
func (m *Manager) claim() (string, time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	wait := m.cfg.Poll
	var best *Record
	for _, r := range m.recs {
		if r.State != Pending {
			continue
		}
		if r.NotBefore.After(now) {
			if d := r.NotBefore.Sub(now); d < wait {
				wait = d
			}
			continue
		}
		if best == nil || r.Submitted.Before(best.Submitted) ||
			(r.Submitted.Equal(best.Submitted) && r.ID < best.ID) {
			best = r
		}
	}
	if best == nil {
		return "", wait
	}
	best.Attempts++
	best.Owner = m.owner
	best.LeaseUntil = now.Add(m.cfg.Lease)
	best.NotBefore = time.Time{}
	m.eventLocked(best, Event{Kind: EventPicked,
		Detail: fmt.Sprintf("claimed by %s (attempt %d/%d)", m.owner, best.Attempts, m.cfg.MaxAttempts)})
	if err := m.transitionLocked(best, Picked); err != nil {
		// Could not persist the claim: undo it and back off rather than
		// hot-loop against a broken disk.
		m.logf("jobs: %s: claim: %v", best.ID, err)
		best.State = Pending
		best.Attempts--
		best.Owner, best.LeaseUntil = "", time.Time{}
		return "", m.cfg.Poll
	}
	return best.ID, 0
}

// runOne executes one claimed job attempt end to end.
func (m *Manager) runOne(id string) {
	m.mu.Lock()
	r, ok := m.recs[id]
	if !ok || r.State != Picked {
		m.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if r.CancelRequested {
		r.Owner, r.LeaseUntil = "", time.Time{}
		m.eventLocked(r, Event{Kind: EventCancelled, Detail: "cancelled before execution"})
		if err := m.transitionLocked(r, Cancelled); err != nil {
			m.logf("jobs: %s: %v", id, err)
		}
		m.mu.Unlock()
		return
	}
	m.active[id] = cancel
	m.eventLocked(r, Event{Kind: EventRunning,
		Detail: fmt.Sprintf("attempt %d/%d", r.Attempts, m.cfg.MaxAttempts)})
	if err := m.transitionLocked(r, Running); err != nil {
		m.logf("jobs: %s: %v", id, err)
		delete(m.active, id)
		m.mu.Unlock()
		return
	}
	snapshot := r.Clone()
	m.mu.Unlock()

	renewDone := make(chan struct{})
	go m.renewLease(id, renewDone)
	result, err := m.cfg.Handler(ctx, snapshot, func(ev Event) { m.appendEvent(id, ev) })
	close(renewDone)

	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.active, id)
	if m.dead.Load() {
		return // abandoned: the on-disk record must stay as the crash left it
	}
	r, ok = m.recs[id]
	if !ok || r.State != Running {
		return // reclaimed out from under us (lease lapsed); the new owner decides
	}
	r.Owner, r.LeaseUntil = "", time.Time{}
	switch {
	case err == nil:
		r.Result = result
		r.Error = ""
		m.eventLocked(r, Event{Kind: EventDone, Detail: "directive complete"})
		err = m.transitionLocked(r, Done)
	case r.CancelRequested && errors.Is(err, context.Canceled):
		m.eventLocked(r, Event{Kind: EventCancelled, Detail: "cancelled mid-run"})
		err = m.transitionLocked(r, Cancelled)
	case errors.Is(err, context.Canceled):
		// Drained mid-run (Stop past its deadline): checkpoint at the job
		// boundary — back to pending for this or the next incarnation.
		r.Interrupts++
		m.eventLocked(r, Event{Kind: EventInterrupted, Detail: "drained mid-run; re-queued"})
		err = m.transitionLocked(r, Pending)
	case r.Attempts >= m.cfg.MaxAttempts:
		r.Error = err.Error()
		m.eventLocked(r, Event{Kind: EventFailed,
			Detail: fmt.Sprintf("attempt %d/%d failed: %v; attempt budget spent", r.Attempts, m.cfg.MaxAttempts, err)})
		err = m.transitionLocked(r, Failed)
	default:
		backoff := m.cfg.Backoff << uint(min(r.Attempts-1, 6))
		r.Error = err.Error()
		r.NotBefore = m.now().Add(backoff)
		m.eventLocked(r, Event{Kind: EventRetry,
			Detail: fmt.Sprintf("attempt %d/%d failed: %v; retrying in %v", r.Attempts, m.cfg.MaxAttempts, r.Error, backoff)})
		err = m.transitionLocked(r, Pending)
		m.signal()
	}
	if err != nil {
		m.logf("jobs: %s: %v", id, err)
	}
}

// renewLease keeps a claimed job's lease fresh while its handler runs, so
// only a dead incarnation's leases ever lapse.
func (m *Manager) renewLease(id string, done <-chan struct{}) {
	interval := m.cfg.Lease / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
			m.mu.Lock()
			if r, ok := m.recs[id]; ok && (r.State == Picked || r.State == Running) && r.Owner == m.owner {
				r.LeaseUntil = m.now().Add(m.cfg.Lease)
				if err := m.persistLocked(r); err != nil {
					m.logf("jobs: %s: lease renew: %v", id, err)
				}
			}
			m.mu.Unlock()
		}
	}
}

// janitor periodically reclaims picked/running jobs whose lease lapsed
// without a live in-process worker — the runtime-side counterpart of the
// boot-time recovery scan (it also picks up leases that were still fresh
// at boot).
func (m *Manager) janitor() {
	defer m.wg.Done()
	interval := m.cfg.Lease / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > 5*time.Second {
		interval = 5 * time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
			m.reclaimStale()
		}
	}
}

func (m *Manager) reclaimStale() {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	for _, r := range m.recs {
		if r.State != Picked && r.State != Running {
			continue
		}
		if _, live := m.active[r.ID]; live {
			continue // renewals cover it; never steal from a live worker
		}
		if r.LeaseUntil.After(now) {
			continue
		}
		if r.State == Running {
			r.Interrupts++
		}
		from := r.State
		r.Owner, r.LeaseUntil = "", time.Time{}
		m.eventLocked(r, Event{Kind: EventReclaimed,
			Detail: fmt.Sprintf("lease expired while %s; re-queued", from)})
		if err := m.transitionLocked(r, Pending); err != nil {
			m.logf("jobs: %s: reclaim: %v", r.ID, err)
			continue
		}
		m.signal()
	}
}

func randomHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic(err) // crypto/rand failing means the platform is broken
	}
	return hex.EncodeToString(b)
}

func compactJSON(raw json.RawMessage) (json.RawMessage, error) {
	if len(raw) == 0 {
		return json.RawMessage("{}"), nil
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, err
	}
	return json.RawMessage(buf.Bytes()), nil
}
