//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// procKilled is the sentinel panic value used to unwind a parked process
// when the kernel is closed.
type procKilled struct{}

// Proc is a simulated process: a coroutine (iter.Pull) whose execution is
// interleaved with other processes only at explicit blocking points (Sleep,
// waits on sync primitives). Between blocking points a process runs to
// completion, so model code needs no locking.
type Proc struct {
	k    *Kernel
	name string
	// step transfers control to the process until it parks or exits. It
	// must only be called from event context (the kernel loop). It is made
	// once, so every wakeup schedules the same func value.
	step  func()
	stop  func()
	yield func(struct{}) bool
	doneF *Future[struct{}]
}

// Go starts fn as a new simulated process. The process begins executing at
// the current simulated time, after all already-queued events for this
// instant. The returned Proc can be waited on via Done.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, doneF: NewFuture[struct{}](k)}
	k.procs[p] = struct{}{}
	next, stop := iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			delete(k.procs, p)
			// A procKilled panic is Close unwinding a parked process.
			if r := recover(); r != nil && r != (procKilled{}) {
				k.failure = fmt.Sprintf("sim: proc %q panicked: %v", p.name, r)
			}
		}()
		fn(p)
		// Only a normal return resolves Done: a runtime.Goexit in fn
		// propagates out of next to the goroutine running the kernel.
		p.doneF.Set(struct{}{})
	})
	p.step, p.stop = func() { next() }, stop
	k.Schedule(0, p.step)
	return p
}

// park suspends the process until some event calls step. It must only be
// called from the process itself.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(procKilled{})
	}
}

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Done returns a future that resolves when the process function returns.
func (p *Proc) Done() *Future[struct{}] { return p.doneF }

// Sleep suspends the process for d simulated time. A non-positive d yields
// the processor for one scheduling round (other events at the current
// instant run first).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.k.Schedule(d, p.step)
	p.park()
}

// Yield is Sleep(0): lets all other events queued for the current instant
// run before the process continues.
func (p *Proc) Yield() { p.Sleep(0) }
