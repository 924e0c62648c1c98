package transmit

import (
	"errors"
	"fmt"
	"math"
	mrand "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewAdaptiveValidation(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		cfg  AdaptiveConfig
		ok   bool
	}{
		{"paper defaults", AdaptiveConfig{Budget: 0.3}, true},
		{"zero budget", AdaptiveConfig{Budget: 0}, true},
		{"full budget", AdaptiveConfig{Budget: 1}, true},
		{"negative budget", AdaptiveConfig{Budget: -0.1}, false},
		{"over budget", AdaptiveConfig{Budget: 1.1}, false},
		{"NaN budget", AdaptiveConfig{Budget: math.NaN()}, false},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			_, err := NewAdaptive(tt.cfg)
			if tt.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tt.ok && !errors.Is(err, ErrBadConfig) {
				t.Fatalf("want ErrBadConfig, got %v", err)
			}
		})
	}
}

func TestAdaptiveTransmitsFirstStep(t *testing.T) {
	t.Parallel()
	p, err := NewAdaptive(AdaptiveConfig{Budget: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Decide(1, []float64{0.5}, nil) {
		t.Fatal("adaptive policy must transmit before central holds any value")
	}
}

// runPolicy drives a policy over a synthetic signal and returns the realized
// frequency and the time-averaged squared staleness error.
func runPolicy(p Policy, signal [][]float64, steps int) (freq, rmse float64) {
	var meter Meter
	var z []float64
	var sqErr float64
	for t := 1; t <= steps; t++ {
		x := signal[t-1]
		if p.Decide(t, x, z) {
			z = append([]float64(nil), x...)
			meter.Observe(true)
		} else {
			meter.Observe(false)
		}
		for i := range x {
			d := x[i] - z[i]
			sqErr += d * d
		}
	}
	return meter.Frequency(), math.Sqrt(sqErr / float64(steps*len(signal[0])))
}

func randomWalkSignal(rng *rand.Rand, steps, dim int, vol float64) [][]float64 {
	sig := make([][]float64, steps)
	cur := make([]float64, dim)
	for i := range cur {
		cur[i] = 0.5
	}
	for t := range sig {
		row := make([]float64, dim)
		for i := range row {
			cur[i] += vol * rng.NormFloat64()
			if cur[i] < 0 {
				cur[i] = 0
			}
			if cur[i] > 1 {
				cur[i] = 1
			}
			row[i] = cur[i]
		}
		sig[t] = row
	}
	return sig
}

func TestAdaptiveMeetsFrequencyBudget(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(1, 1))
	signal := randomWalkSignal(rng, 20000, 2, 0.05)
	for _, b := range []float64{0.05, 0.1, 0.3, 0.5} {
		p, err := NewAdaptive(AdaptiveConfig{Budget: b})
		if err != nil {
			t.Fatal(err)
		}
		freq, _ := runPolicy(p, signal, len(signal))
		// Fig. 3: actual frequency tracks the requested budget closely.
		if math.Abs(freq-b) > 0.02*b+0.003 {
			t.Errorf("B=%v: realized frequency %v drifts from budget", b, freq)
		}
	}
}

func TestAdaptiveQueueStability(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(2, 2))
	signal := randomWalkSignal(rng, 50000, 1, 0.05)
	p, err := NewAdaptive(AdaptiveConfig{Budget: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	var z []float64
	for t1 := 1; t1 <= len(signal); t1++ {
		if p.Decide(t1, signal[t1-1], z) {
			z = append([]float64(nil), signal[t1-1]...)
		}
	}
	// Lyapunov guarantee: Q(t)/t → 0.
	if ratio := math.Abs(p.queue) / float64(len(signal)); ratio > 0.01 {
		t.Fatalf("queue not stable: |Q|/t = %v", ratio)
	}
}

func TestAdaptiveBeatsUniformOnBurstySignal(t *testing.T) {
	t.Parallel()
	// Bursty signal: long quiet periods then rapid change. The adaptive
	// policy banks budget during quiet periods and spends it in bursts,
	// which is the core claim of Fig. 4.
	rng := rand.New(rand.NewPCG(3, 3))
	steps := 10000
	signal := make([][]float64, steps)
	cur := 0.2
	for t := range signal {
		if t%500 < 50 { // burst window
			cur += 0.1 * rng.NormFloat64()
		} else if rng.Float64() < 0.01 {
			cur += 0.01 * rng.NormFloat64()
		}
		if cur < 0 {
			cur = 0
		}
		if cur > 1 {
			cur = 1
		}
		signal[t] = []float64{cur}
	}
	const b = 0.2
	ap, err := NewAdaptive(AdaptiveConfig{Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	up, err := NewUniform(b)
	if err != nil {
		t.Fatal(err)
	}
	_, adaptiveRMSE := runPolicy(ap, signal, steps)
	_, uniformRMSE := runPolicy(up, signal, steps)
	if adaptiveRMSE >= uniformRMSE {
		t.Fatalf("adaptive RMSE %v not better than uniform %v on bursty signal",
			adaptiveRMSE, uniformRMSE)
	}
}

func TestUniformFrequency(t *testing.T) {
	t.Parallel()
	tests := []struct {
		b     float64
		steps int
	}{
		{0.5, 1000},
		{0.25, 1000},
		{0.1, 1000},
		{0.3, 10000},
		{1.0, 100},
	}
	for _, tt := range tests {
		p, err := NewUniform(tt.b)
		if err != nil {
			t.Fatal(err)
		}
		var meter Meter
		for s := 1; s <= tt.steps; s++ {
			meter.Observe(p.Decide(s, nil, nil))
		}
		if got := meter.Frequency(); math.Abs(got-tt.b) > 1.0/float64(tt.steps)+1e-9 {
			t.Errorf("B=%v: uniform frequency %v", tt.b, got)
		}
	}
}

func TestUniformZeroBudgetStillFirstTransmit(t *testing.T) {
	t.Parallel()
	p, err := NewUniform(0)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Decide(1, nil, nil) {
		t.Fatal("uniform policy should spend its initial credit on step 1")
	}
	for s := 2; s < 100; s++ {
		if p.Decide(s, nil, nil) {
			t.Fatal("B=0 must never transmit again")
		}
	}
}

func TestUniformValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewUniform(-0.1); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
	if _, err := NewUniform(math.NaN()); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
}

func TestAlways(t *testing.T) {
	t.Parallel()
	var a Always
	for s := 1; s < 10; s++ {
		if !a.Decide(s, nil, nil) {
			t.Fatal("Always must transmit")
		}
	}
}

func TestMeter(t *testing.T) {
	t.Parallel()
	var m Meter
	if m.Frequency() != 0 {
		t.Fatal("empty meter frequency should be 0")
	}
	m.Observe(true)
	m.Observe(false)
	m.Observe(true)
	m.Observe(false)
	if got := m.Frequency(); got != 0.5 {
		t.Fatalf("frequency = %v, want 0.5", got)
	}
	if m.Steps() != 4 || m.Transmits() != 2 {
		t.Fatalf("steps/transmits = %d/%d", m.Steps(), m.Transmits())
	}
}

// Property: for any budget and any signal, the adaptive policy's realized
// frequency exceeds the budget by exactly Q(T)/T (the virtual-queue drift
// identity), which is bounded by the queue's equilibrium over the horizon.
func TestAdaptiveBudgetProperty(t *testing.T) {
	t.Parallel()
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed+1))
		b := 0.05 + 0.9*rng.Float64()
		p, err := NewAdaptive(AdaptiveConfig{Budget: b})
		if err != nil {
			return false
		}
		steps := 3000
		signal := randomWalkSignal(rng, steps, 1, 0.1)
		freq, _ := runPolicy(p, signal, steps)
		// Drift identity: Σβ − B·T = Q(T) (queue starts at zero).
		drift := p.queue / float64(steps)
		if math.Abs(freq-(b+drift)) > 1.0/float64(steps)+1e-9 {
			return false
		}
		// Finite-horizon overshoot stays within the O(V_T/T) envelope.
		return freq <= b+0.02
	}
	cfg := &quick.Config{MaxCount: 40, Rand: mrand.New(mrand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveWeightIsThePapers pins eq. 9's weight V_t = 0.5·(t+1)^0.65:
// with the virtual queue one ulp below V_t·F the policy transmits, with it
// at V_t·F it stays silent (Q < V_t·F is strict), at steps inside the
// StepPow table, on its growth edge and past its bound.
func TestAdaptiveWeightIsThePapers(t *testing.T) {
	t.Parallel()
	x, z := []float64{0.9, 0.2}, []float64{0.4, 0.6}
	penalty := staleness(x, z) // eq. 7, F = 0.205
	for _, step := range []int{1, 40, vtMinSteps, 5000, vtMaxSteps + 3} {
		t.Run(fmt.Sprintf("t=%d", step), func(t *testing.T) {
			t.Parallel()
			at := 0.5 * math.Pow(float64(step)+1, 0.65) * penalty
			for _, tc := range []struct {
				queue float64
				send  bool
			}{{math.Nextafter(at, 0), true}, {at, false}} {
				p, err := NewAdaptive(AdaptiveConfig{Budget: 0.3})
				if err != nil {
					t.Fatal(err)
				}
				if err := p.UnmarshalState(marshalFloat(tc.queue)); err != nil {
					t.Fatal(err)
				}
				if got := p.Decide(step, x, z); got != tc.send {
					t.Fatalf("queue %v against V_t·F = %v: sent %v, want %v", tc.queue, at, got, tc.send)
				}
			}
		})
	}
}
