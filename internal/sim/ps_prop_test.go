package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestPSFairShareInvariant checks the processor-sharing conservation law:
// the integral of the delivered aggregate rate (per-job rate × active jobs)
// over the run equals the total work submitted, under randomized arrivals,
// capacity changes, and background-load churn. The test-side integral is
// accumulated piecewise at every transition point — arrivals, SetCapacity,
// AddBackground, and completions (via OnDone) — using the aggregate rate
// that held since the previous transition.
//
// Each seed runs two ways. The wheel subtest schedules the trace within
// the timer wheel's levels and must repeat bit-identically (repeat-run
// identity). The heap subtest shifts the whole trace wheelSpan into the
// future, so every seeded event starts in the wheel's overflow heap and
// migrates into the wheel as the clock nears it; the shifted run must
// deliver exactly the unshifted run's integral and makespan.
func TestPSFairShareInvariant(t *testing.T) {
	type bgPulse struct {
		at    Time
		dur   Time
		delta float64
	}
	type arrival struct {
		at Time
		w  float64
	}
	type capChange struct {
		at Time
		c  float64
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cap0 := 1 + 3*rng.Float64()
		var arrivals []arrival
		var caps []capChange
		var pulses []bgPulse
		totalWork := 0.0
		n := 20 + rng.Intn(20)
		for i := 0; i < n; i++ {
			a := arrival{at: Time(rng.Int63n(int64(20 * Second))), w: 0.1 + 4*rng.Float64()}
			arrivals = append(arrivals, a)
			totalWork += a.w
		}
		for i := 0; i < 6; i++ {
			caps = append(caps, capChange{at: Time(rng.Int63n(int64(25 * Second))), c: 0.5 + 3.5*rng.Float64()})
		}
		for i := 0; i < 8; i++ {
			pulses = append(pulses, bgPulse{
				at:    Time(rng.Int63n(int64(22 * Second))),
				dur:   Time(1 + rng.Int63n(int64(8*Second))),
				delta: 0.25 + 2*rng.Float64(),
			})
		}

		run := func(t *testing.T, shift Time) (delivered float64, end Time) {
			k := NewKernel()
			defer k.Close()
			ps := NewPS(k, cap0, 0)
			var integral float64
			lastT := k.Now()
			lastAgg := 0.0
			accrue := func() {
				now := k.Now()
				integral += lastAgg * (now - lastT).Seconds()
				lastT = now
			}
			recapture := func() { lastAgg = ps.rate() * float64(ps.Load()) }
			completed := 0
			for _, a := range arrivals {
				a := a
				k.Schedule(shift+a.at, func() {
					accrue()
					ps.ServeAsync(a.w).OnDone(func(struct{}) {
						completed++
						accrue()
						recapture()
					})
					recapture()
				})
			}
			for _, c := range caps {
				c := c
				k.Schedule(shift+c.at, func() { accrue(); ps.SetCapacity(c.c); recapture() })
			}
			for _, p := range pulses {
				p := p
				k.Schedule(shift+p.at, func() { accrue(); ps.AddBackground(p.delta); recapture() })
				k.Schedule(shift+p.at+p.dur, func() { accrue(); ps.AddBackground(-p.delta); recapture() })
			}
			if shift >= wheelSpan {
				if want := len(arrivals) + len(caps) + 2*len(pulses); k.q.overflow.Len() != want {
					t.Fatalf("%d of %d shifted events in the overflow heap", k.q.overflow.Len(), want)
				}
			}
			end = k.Run() - shift
			if completed != len(arrivals) {
				t.Fatalf("%d of %d jobs completed", completed, len(arrivals))
			}
			if ps.Load() != 0 {
				t.Fatalf("PS still loaded after drain: %d", ps.Load())
			}
			return integral, end
		}
		conserved := func(t *testing.T, integral float64) {
			t.Helper()
			if diff := integral - totalWork; diff < -1e-3*totalWork || diff > 1e-3*totalWork {
				t.Fatalf("conservation violated: delivered %.9f, submitted %.9f (diff %.2e)",
					integral, totalWork, diff)
			}
		}
		t.Run(fmt.Sprintf("seed%d/wheel", seed), func(t *testing.T) {
			integral, end := run(t, 0)
			conserved(t, integral)
			if integral2, end2 := run(t, 0); integral2 != integral || end2 != end {
				t.Fatalf("repeat run differs: delivered %v at %v, then %v at %v",
					integral, end, integral2, end2)
			}
		})
		t.Run(fmt.Sprintf("seed%d/heap", seed), func(t *testing.T) {
			integral, end := run(t, wheelSpan)
			conserved(t, integral)
			if ref, refEnd := run(t, 0); integral != ref || end != refEnd {
				t.Fatalf("overflow-heap run differs: delivered %v at %v, wheel run %v at %v",
					integral, end, ref, refEnd)
			}
		})
	}
}

// TestPSSaturatedThroughput: with jobs always present, no per-job cap and
// no background load, the server delivers exactly its capacity — the batch
// drains at totalWork/capacity regardless of job sizes.
func TestPSSaturatedThroughput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const capacity = 2.5
	k := NewKernel()
	defer k.Close()
	ps := NewPS(k, capacity, 0)
	totalWork := 0.0
	for i := 0; i < 25; i++ {
		w := 0.2 + 3*rng.Float64()
		totalWork += w
		ps.ServeAsync(w)
	}
	end := k.Run()
	want := totalWork / capacity
	if got := end.Seconds(); got < want-1e-6 || got > want+1e-6 {
		t.Fatalf("drain took %.9fs, want %.9fs", got, want)
	}
}

// TestPSZeroRateStall: when the per-job rate underflows to zero (capacity
// fully absorbed by background load), replan must take the explicit stall
// path — no completion event, no Inf/NaN deadline — and a later capacity
// or background change must revive the job.
func TestPSZeroRateStall(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	ps := NewPS(k, 1e-300, 0)
	fut := ps.ServeAsync(1)
	ps.AddBackground(1e40) // 1e-300 / 1e40 underflows to rate 0
	if ps.rate() != 0 {
		t.Fatalf("rate = %g, want exact 0", ps.rate())
	}
	if n := k.PendingEvents(); n != 0 {
		t.Fatalf("stalled PS scheduled %d events", n)
	}
	k.RunUntil(k.Now() + 10*Second)
	if fut.Done() {
		t.Fatal("job completed while stalled")
	}
	ps.AddBackground(-1e40)
	ps.SetCapacity(1)
	start := k.Now()
	k.Run()
	if !fut.Done() {
		t.Fatal("job did not complete after recovery")
	}
	took := (k.Now() - start).Seconds()
	if took < 1-1e-6 || took > 1+1e-6 {
		t.Fatalf("recovered job took %.9fs, want 1s", took)
	}
}
