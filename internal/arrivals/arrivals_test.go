package arrivals

import (
	"math"
	"testing"
)

// take materializes the first n arrivals of a process (fewer if the
// stream ends early).
func take(p Process, n int) []float64 {
	out := make([]float64, 0, n)
	for len(out) < n {
		t, ok := p.Next()
		if !ok {
			break
		}
		out = append(out, t)
	}
	return out
}

// checkStream pulls n arrivals and verifies the sequence is positive and
// non-decreasing.
func checkStream(t *testing.T, p Process, n int) []float64 {
	t.Helper()
	ts := take(p, n)
	if len(ts) != n {
		t.Fatalf("%s: got %d arrivals, want %d", p.Name(), len(ts), n)
	}
	prev := 0.0
	for i, at := range ts {
		if at <= 0 || at < prev {
			t.Fatalf("%s: arrival %d at %g not monotone after %g", p.Name(), i, at, prev)
		}
		prev = at
	}
	return ts
}

func TestPoissonIsDeterministicAndMonotone(t *testing.T) {
	a := checkStream(t, NewPoisson(100, 7), 500)
	b := take(NewPoisson(100, 7), 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := take(NewPoisson(100, 8), 500)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestPoissonMeanRate(t *testing.T) {
	const rate, n = 200.0, 20000
	ts := take(NewPoisson(rate, 3), n)
	got := float64(n) / ts[n-1]
	if math.Abs(got-rate)/rate > 0.05 {
		t.Errorf("empirical rate %.1f, want %.1f ±5%%", got, rate)
	}
}

func TestMMPPSwitchesStatesAndKeepsOrder(t *testing.T) {
	m := NewMMPP(50, 500, 0.1, 0.05, 11)
	sawBase, sawBurst := false, false
	prev := 0.0
	for i := 0; i < 5000; i++ {
		at, ok := m.Next()
		if !ok || at < prev {
			t.Fatalf("arrival %d at %g not monotone after %g", i, at, prev)
		}
		prev = at
		if m.State() == 0 {
			sawBase = true
		} else {
			sawBurst = true
		}
	}
	if !sawBase || !sawBurst {
		t.Errorf("5000 arrivals visited base=%v burst=%v, want both states", sawBase, sawBurst)
	}
}

func TestMMPPRateBetweenLevels(t *testing.T) {
	// Long-run rate must sit between the base and burst levels, weighted
	// by dwell: here dwell is equal so the mean is near (50+500)/2.
	m := NewMMPP(50, 500, 0.2, 0.2, 5)
	const n = 30000
	ts := take(m, n)
	got := float64(n) / ts[n-1]
	if got < 50 || got > 500 {
		t.Errorf("long-run rate %.1f outside [base, burst] = [50, 500]", got)
	}
	if math.Abs(got-275)/275 > 0.2 {
		t.Errorf("long-run rate %.1f far from dwell-weighted mean 275", got)
	}
}

func TestDiurnalTracksRamp(t *testing.T) {
	// Count arrivals in the peak half-period vs the trough half-period of
	// the first cycle: the ramp must show through.
	d := NewDiurnal(400, 0.8, 2.0, 9)
	peak, trough := 0, 0
	for {
		at, _ := d.Next()
		if at >= 2.0 {
			break
		}
		if at < 1.0 {
			peak++ // sin positive on the first half-period
		} else {
			trough++
		}
	}
	if peak <= trough {
		t.Errorf("peak half had %d arrivals, trough half %d; ramp not visible", peak, trough)
	}
}

func TestConstructorsValidate(t *testing.T) {
	cases := []func(){
		func() { NewPoisson(0, 1) },
		func() { NewPoisson(-5, 1) },
		func() { NewMMPP(0, 10, 1, 1, 1) },
		func() { NewMMPP(10, 10, 0, 1, 1) },
		func() { NewDiurnal(0, 0.5, 1, 1) },
		func() { NewDiurnal(10, 1.0, 1, 1) },
		func() { NewDiurnal(10, 0.5, 0, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid parameters did not panic", i)
				}
			}()
			f()
		}()
	}
}
