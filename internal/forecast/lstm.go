package forecast

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"orcf/internal/nn"
)

// LSTMConfig parameterizes the LSTM forecaster. The architecture follows
// §VI-A3: two stacked LSTM layers topped by a dense layer with ReLU.
type LSTMConfig struct {
	// Window is the look-back length fed to the network. Zero means 12.
	Window int
	// Hidden is the LSTM hidden width. Zero means 16.
	Hidden int
	// Layers is the number of stacked LSTM layers. Zero means 2.
	Layers int
	// Epochs is the number of training epochs per Fit. Zero means 40.
	Epochs int
	// BatchSize for minibatch training. Zero means 32.
	BatchSize int
	// LearningRate for Adam. Zero means 0.01.
	LearningRate float64
	// ClipNorm bounds the global gradient norm. Zero means 5.
	ClipNorm float64
	// Seed drives weight initialization and shuffling; fits are
	// deterministic given the seed. (The paper averages 10 seeds.)
	Seed uint64
	// FitWindow caps how much history a Fit uses (most recent portion).
	// Zero means all history.
	FitWindow int
}

func (c LSTMConfig) withDefaults() LSTMConfig {
	if c.Window == 0 {
		c.Window = 12
	}
	if c.Hidden == 0 {
		c.Hidden = 16
	}
	if c.Layers == 0 {
		c.Layers = 2
	}
	if c.Epochs == 0 {
		c.Epochs = 40
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.01
	}
	if c.ClipNorm == 0 {
		c.ClipNorm = 5
	}
	return c
}

// LSTM forecasts a univariate series with a stacked-LSTM network trained on
// sliding windows. Series values are min-max scaled to [0.1, 0.9] before
// training so the ReLU head never clips legitimate values; forecasts are
// scaled back.
type LSTM struct {
	cfg     LSTMConfig
	net     *nn.LSTMNetwork
	history []float64
	lo, hi  float64 // scaling bounds from the last Fit
	fitted  bool

	fitDuration time.Duration
}

var _ Model = (*LSTM)(nil)

// NewLSTM returns an LSTM forecaster with the given configuration.
func NewLSTM(cfg LSTMConfig) *LSTM { return &LSTM{cfg: cfg.withDefaults()} }

// FitDuration returns the cumulative wall-clock time spent in Fit, feeding
// Table II.
func (l *LSTM) FitDuration() time.Duration { return l.fitDuration }

// scale maps a raw value into [0.1, 0.9] given the fit bounds.
func (l *LSTM) scale(v float64) float64 {
	span := l.hi - l.lo
	if span <= 0 {
		return 0.5
	}
	return 0.1 + 0.8*(v-l.lo)/span
}

func (l *LSTM) unscale(v float64) float64 {
	span := l.hi - l.lo
	if span <= 0 {
		return l.lo
	}
	return l.lo + (v-0.1)/0.8*span
}

// MinObservations is the shortest series Fit accepts.
func (l *LSTM) MinObservations() int { return l.cfg.Window + 2 }

// Fit implements Model: rebuild the network from the seed and train on
// sliding windows of the (optionally truncated) series.
func (l *LSTM) Fit(series []float64) error {
	minLen := l.MinObservations()
	if len(series) < minLen {
		return fmt.Errorf("forecast: lstm needs ≥ %d observations, got %d: %w",
			minLen, len(series), ErrBadInput)
	}
	start := time.Now()
	defer func() { l.fitDuration += time.Since(start) }()

	l.history = append(l.history[:0], series...)
	train := l.history
	if l.cfg.FitWindow > 0 && len(train) > l.cfg.FitWindow {
		train = train[len(train)-l.cfg.FitWindow:]
	}

	l.lo, l.hi = train[0], train[0]
	for _, v := range train {
		l.lo = math.Min(l.lo, v)
		l.hi = math.Max(l.hi, v)
	}

	rng := rand.New(rand.NewPCG(l.cfg.Seed, l.cfg.Seed^0x9e3779b97f4a7c15))
	net, err := nn.NewLSTMNetwork(nn.NetworkConfig{
		InputSize:  1,
		HiddenSize: l.cfg.Hidden,
		Layers:     l.cfg.Layers,
		OutputSize: 1,
	}, rng)
	if err != nil {
		return fmt.Errorf("forecast: lstm build: %w", err)
	}

	w := l.cfg.Window
	nSamples := len(train) - w
	seqs := make([][][]float64, nSamples)
	targets := make([][]float64, nSamples)
	for i := 0; i < nSamples; i++ {
		seq := make([][]float64, w)
		for j := 0; j < w; j++ {
			seq[j] = []float64{l.scale(train[i+j])}
		}
		seqs[i] = seq
		targets[i] = []float64{l.scale(train[i+w])}
	}
	opt := nn.NewAdam(l.cfg.LearningRate)
	order := make([]int, nSamples)
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < l.cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		net.TrainEpoch(seqs, targets, order, l.cfg.BatchSize, opt, l.cfg.ClipNorm)
	}
	l.net = net
	l.fitted = true
	return nil
}

// Update implements Model.
func (l *LSTM) Update(y float64) {
	l.history = append(l.history, y)
}

// Forecast implements Model with iterated one-step prediction: each forecast
// is appended to the input window to produce the next.
func (l *LSTM) Forecast(h int) ([]float64, error) {
	if !l.fitted {
		return nil, ErrNotFitted
	}
	if h < 1 {
		return nil, fmt.Errorf("forecast: horizon %d < 1: %w", h, ErrBadInput)
	}
	if len(l.history) < l.cfg.Window {
		return nil, fmt.Errorf("forecast: history %d shorter than window %d: %w",
			len(l.history), l.cfg.Window, ErrBadInput)
	}
	w := l.cfg.Window
	buf := make([]float64, w)
	for i := 0; i < w; i++ {
		buf[i] = l.scale(l.history[len(l.history)-w+i])
	}
	out := make([]float64, h)
	seq := make([][]float64, w)
	for s := 0; s < h; s++ {
		for j := 0; j < w; j++ {
			seq[j] = []float64{buf[j]}
		}
		pred := l.net.Predict(seq)[0]
		out[s] = l.unscale(pred)
		copy(buf, buf[1:])
		buf[w-1] = pred
	}
	return out, nil
}

// Name implements Model.
func (l *LSTM) Name() string { return "lstm" }
