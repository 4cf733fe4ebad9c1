// Package jobs is a durable, filesystem-backed asynchronous job manager:
// the persistence layer under the ninjad control-plane daemon. Every
// accepted directive becomes a job record on disk, written atomically
// (temp file + rename) on every state transition, so a crashed daemon —
// kill -9 included — restarts with the exact set of accepted, in-flight
// and finished jobs it had before, and loses none.
//
// The lifecycle follows the fs/kv-backed async-job-manager pattern of
// object-store reconstructors (auklet-style pick-up/commit/clean):
//
//	submit → pending → picked → running → done | failed | cancelled
//	                     │         │
//	                     │ lease   │ error (bounded retry, backoff)
//	                     │ expiry  │ interrupt (daemon died / drained)
//	                     └────► pending ◄┘
//
// A worker claims a pending job by moving it to picked under a wall-clock
// lease it keeps renewing; a lease that stops being renewed (the daemon
// died) makes the job reclaimable. On boot the manager scans the state
// directory: pending jobs are re-queued, picked jobs past their lease are
// reclaimed, and running jobs — necessarily orphans of a dead incarnation,
// since a state directory belongs to one daemon at a time — are marked
// interrupted and re-queued for deterministic re-execution (the ninja
// fleet simulation is a pure function of the directive, so a re-run
// converges on the same report the lost run would have produced).
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"time"
)

// State is a job's lifecycle position.
type State string

const (
	// Pending: accepted and durable, waiting for a worker (or for its
	// retry backoff gate NotBefore to pass).
	Pending State = "pending"
	// Picked: claimed by a worker under a lease, not yet executing.
	Picked State = "picked"
	// Running: the handler is executing the directive.
	Running State = "running"
	// Done: the handler succeeded; Result holds its output.
	Done State = "done"
	// Failed: the handler failed and the attempt budget is spent; Error
	// holds the last error.
	Failed State = "failed"
	// Cancelled: cancelled before completion (directly from pending, or
	// by interrupting a running handler).
	Cancelled State = "cancelled"
)

// Valid reports whether s is one of the six lifecycle states.
func (s State) Valid() bool {
	switch s {
	case Pending, Picked, Running, Done, Failed, Cancelled:
		return true
	}
	return false
}

// Terminal reports whether a job in this state will never run again.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// validNext is the transition table. Picked→Pending is a lease
// reclamation; Running→Pending is a retry (handler error, budget left) or
// an interruption (daemon died or drained mid-run).
var validNext = map[State]map[State]bool{
	Pending: {Picked: true, Cancelled: true},
	Picked:  {Running: true, Pending: true, Cancelled: true},
	Running: {Done: true, Failed: true, Cancelled: true, Pending: true},
}

// CanTransition reports whether from → to is a legal lifecycle move.
func CanTransition(from, to State) bool { return validNext[from][to] }

// TransitionError reports an attempted illegal lifecycle move.
type TransitionError struct {
	ID       string
	From, To State
}

func (e *TransitionError) Error() string {
	return fmt.Sprintf("jobs: %s: illegal transition %s -> %s", e.ID, e.From, e.To)
}

// MismatchError reports an idempotent re-submission whose directive
// differs from the one already recorded under the same ID.
type MismatchError struct{ ID string }

func (e *MismatchError) Error() string {
	return fmt.Sprintf("jobs: %s: job exists with a different directive", e.ID)
}

// ErrNotFound reports an unknown job ID.
var ErrNotFound = errors.New("jobs: not found")

// Event is one entry of a job's trail: manager lifecycle marks plus
// whatever the handler emits (ninjad forwards the fleet executor's
// metrics.Event trail). Seq is 1-based and dense per job, so clients can
// resume a stream from the last sequence number they saw.
type Event struct {
	Seq     int       `json:"seq"`
	Wall    time.Time `json:"wall"`
	Kind    string    `json:"kind"`
	Phase   string    `json:"phase,omitempty"`
	Subject string    `json:"subject,omitempty"`
	Detail  string    `json:"detail,omitempty"`
	// Sim is the simulated-clock timestamp in seconds, for events that
	// carry one (the fleet trail does; lifecycle marks do not).
	Sim float64 `json:"sim_s,omitempty"`
}

// Manager-emitted lifecycle event kinds. Handler-emitted kinds ride
// through verbatim.
const (
	EventSubmitted   = "submitted"
	EventPicked      = "picked"
	EventRunning     = "running"
	EventRetry       = "retry"
	EventReclaimed   = "reclaimed"
	EventInterrupted = "interrupted"
	EventDone        = "done"
	EventFailed      = "failed"
	EventCancelled   = "cancelled"
)

// Record is one durable job. Everything a restarted daemon needs to
// resume — the directive, the lifecycle position, the attempt and
// interruption counters, the lease — lives here; the file on disk is the
// source of truth and is rewritten atomically on every transition.
type Record struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Directive is the opaque payload handed to the handler (ninjad
	// stores the fleet directive spec).
	Directive json.RawMessage `json:"directive,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Updated   time.Time       `json:"updated"`
	// NotBefore gates a retried job's next pick-up (exponential backoff).
	NotBefore time.Time `json:"not_before,omitempty"`
	// LeaseUntil is the claim expiry while picked/running. A job whose
	// lease lapses without renewal belongs to a dead worker and is
	// reclaimable.
	LeaseUntil time.Time `json:"lease_until,omitempty"`
	// Owner names the daemon incarnation holding the lease.
	Owner string `json:"owner,omitempty"`
	// Attempts counts executions begun (picked), including the current.
	Attempts int `json:"attempts,omitempty"`
	// Interrupts counts times the job was found running by a recovery
	// scan or drained mid-flight and re-queued.
	Interrupts int `json:"interrupts,omitempty"`
	// CancelRequested marks a cancel that arrived while picked/running;
	// the worker honors it at the next boundary.
	CancelRequested bool            `json:"cancel_requested,omitempty"`
	Result          json.RawMessage `json:"result,omitempty"`
	Error           string          `json:"error,omitempty"`
	Events          []Event         `json:"events,omitempty"`
}

// Summary is one job's line in a listing: its identity and lifecycle
// position, without the directive, result or event trail a Record carries.
type Summary struct {
	ID        string    `json:"id"`
	State     State     `json:"state"`
	Submitted time.Time `json:"submitted"`
	Updated   time.Time `json:"updated"`
	Attempts  int       `json:"attempts,omitempty"`
	Error     string    `json:"error,omitempty"`
}

// Clone returns a deep-enough copy for handing outside the manager's
// lock: the event slice and raw JSON are copied, so later appends or
// transitions cannot race a reader.
func (r *Record) Clone() Record {
	out := *r
	out.Directive = append(json.RawMessage(nil), r.Directive...)
	out.Result = append(json.RawMessage(nil), r.Result...)
	out.Events = append([]Event(nil), r.Events...)
	return out
}

var idPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// ValidID reports whether id is acceptable as a job ID (and therefore as
// a file name inside the state directory): 1-64 chars of
// [A-Za-z0-9._-], not starting with a punctuation character.
func ValidID(id string) bool { return idPattern.MatchString(id) }
