// Package nn is the minimal neural-network substrate needed to reproduce the
// paper's LSTM forecaster: an LSTM cell with full backpropagation through
// time, a dense output layer with ReLU activation, Xavier initialization, and
// the Adam optimizer. Everything is implemented on flat float64 slices with
// no external dependencies.
//
// The package is deliberately small but real: gradients are exact (verified
// against numerical differentiation in tests), training is deterministic
// given an injected RNG, and gradient clipping keeps long-sequence training
// stable.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
)

// ErrBadConfig reports invalid layer or optimizer parameters.
var ErrBadConfig = errors.New("nn: invalid configuration")

// Param is one learnable tensor with its gradient and Adam state.
type Param struct {
	W    []float64
	Grad []float64
	m, v []float64
}

func newParam(n int) *Param {
	return &Param{W: make([]float64, n), Grad: make([]float64, n), m: make([]float64, n), v: make([]float64, n)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// Adam is the Adam optimizer (Kingma & Ba, 2015) with bias correction.
type Adam struct {
	LearningRate float64
	Beta1, Beta2 float64
	Epsilon      float64
	step         int
}

// NewAdam returns an Adam optimizer with the usual defaults for any zero
// field (lr 0.001 — callers typically raise it, β₁ 0.9, β₂ 0.999, ε 1e-8).
func NewAdam(lr float64) *Adam {
	if lr == 0 {
		lr = 0.001
	}
	return &Adam{LearningRate: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one Adam update to every parameter using its accumulated
// gradient, then the caller is expected to zero the gradients.
func (a *Adam) Step(params []*Param) {
	a.step++
	b1c := 1 - math.Pow(a.Beta1, float64(a.step))
	b2c := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, p := range params {
		for i := range p.W {
			g := p.Grad[i]
			p.m[i] = a.Beta1*p.m[i] + (1-a.Beta1)*g
			p.v[i] = a.Beta2*p.v[i] + (1-a.Beta2)*g*g
			mHat := p.m[i] / b1c
			vHat := p.v[i] / b2c
			p.W[i] -= a.LearningRate * mHat / (math.Sqrt(vHat) + a.Epsilon)
		}
	}
}

// ClipGradients scales all gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm.
func ClipGradients(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			for i := range p.Grad {
				p.Grad[i] *= scale
			}
		}
	}
	return norm
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// LSTMCell is a single LSTM layer. Gate order in the packed 4H dimension is
// input, forget, cell (g), output.
type LSTMCell struct {
	inSize, hidden int
	wx, wh, b      *Param // wx: 4H×I, wh: 4H×H, b: 4H
}

// lstmCache stores per-timestep forward state for BPTT.
type lstmCache struct {
	x, hPrev, cPrev []float64
	i, f, g, o      []float64
	c, tanhC, h     []float64
}

// NewLSTMCell creates a layer with Xavier-uniform weights and forget-gate
// bias 1 (the standard trick that eases gradient flow early in training).
func NewLSTMCell(inSize, hidden int, rng *rand.Rand) (*LSTMCell, error) {
	if inSize < 1 || hidden < 1 {
		return nil, fmt.Errorf("nn: lstm sizes %d/%d: %w", inSize, hidden, ErrBadConfig)
	}
	if rng == nil {
		return nil, fmt.Errorf("nn: nil rng: %w", ErrBadConfig)
	}
	c := &LSTMCell{
		inSize: inSize,
		hidden: hidden,
		wx:     newParam(4 * hidden * inSize),
		wh:     newParam(4 * hidden * hidden),
		b:      newParam(4 * hidden),
	}
	xavierInit(c.wx.W, inSize+hidden, rng)
	xavierInit(c.wh.W, hidden+hidden, rng)
	for h := hidden; h < 2*hidden; h++ { // forget gate slice
		c.b.W[h] = 1
	}
	return c, nil
}

func xavierInit(w []float64, fan int, rng *rand.Rand) {
	scale := math.Sqrt(6.0 / float64(fan))
	for i := range w {
		w[i] = (2*rng.Float64() - 1) * scale
	}
}

// Params returns the layer's learnable tensors.
func (c *LSTMCell) Params() []*Param { return []*Param{c.wx, c.wh, c.b} }

// forwardStep computes one timestep given input x and previous (h, c) and
// returns the cache holding every intermediate needed for the backward pass.
func (c *LSTMCell) forwardStep(x, hPrev, cPrev []float64) *lstmCache {
	h := c.hidden
	pre := make([]float64, 4*h)
	for r := 0; r < 4*h; r++ {
		s := c.b.W[r]
		rowX := c.wx.W[r*c.inSize : (r+1)*c.inSize]
		for j, xv := range x {
			s += rowX[j] * xv
		}
		rowH := c.wh.W[r*h : (r+1)*h]
		for j, hv := range hPrev {
			s += rowH[j] * hv
		}
		pre[r] = s
	}
	cache := &lstmCache{
		x: x, hPrev: hPrev, cPrev: cPrev,
		i: make([]float64, h), f: make([]float64, h),
		g: make([]float64, h), o: make([]float64, h),
		c: make([]float64, h), tanhC: make([]float64, h), h: make([]float64, h),
	}
	for j := 0; j < h; j++ {
		cache.i[j] = sigmoid(pre[j])
		cache.f[j] = sigmoid(pre[h+j])
		cache.g[j] = math.Tanh(pre[2*h+j])
		cache.o[j] = sigmoid(pre[3*h+j])
		cache.c[j] = cache.f[j]*cPrev[j] + cache.i[j]*cache.g[j]
		cache.tanhC[j] = math.Tanh(cache.c[j])
		cache.h[j] = cache.o[j] * cache.tanhC[j]
	}
	return cache
}

// ForwardSequence runs the layer over a sequence of inputs starting from
// zero state, returning the per-step hidden states and the caches.
func (c *LSTMCell) ForwardSequence(xs [][]float64) (hs [][]float64, caches []*lstmCache) {
	h := make([]float64, c.hidden)
	cc := make([]float64, c.hidden)
	hs = make([][]float64, len(xs))
	caches = make([]*lstmCache, len(xs))
	for t, x := range xs {
		cache := c.forwardStep(x, h, cc)
		caches[t] = cache
		hs[t] = cache.h
		h, cc = cache.h, cache.c
	}
	return hs, caches
}

// BackwardSequence backpropagates through time. dhs[t] is ∂L/∂h_t from
// upstream (may be nil for steps with no direct loss). Gradients accumulate
// into the layer's params; the returned dxs are ∂L/∂x_t for the layer below.
func (c *LSTMCell) BackwardSequence(caches []*lstmCache, dhs [][]float64) (dxs [][]float64) {
	h := c.hidden
	dhNext := make([]float64, h)
	dcNext := make([]float64, h)
	dxs = make([][]float64, len(caches))
	dpre := make([]float64, 4*h)
	for t := len(caches) - 1; t >= 0; t-- {
		cache := caches[t]
		dhTotal := make([]float64, h)
		copy(dhTotal, dhNext)
		if dhs != nil && dhs[t] != nil {
			for j := range dhTotal {
				dhTotal[j] += dhs[t][j]
			}
		}
		for j := 0; j < h; j++ {
			do := dhTotal[j] * cache.tanhC[j]
			dc := dhTotal[j]*cache.o[j]*(1-cache.tanhC[j]*cache.tanhC[j]) + dcNext[j]
			di := dc * cache.g[j]
			df := dc * cache.cPrev[j]
			dg := dc * cache.i[j]
			dpre[j] = di * cache.i[j] * (1 - cache.i[j])
			dpre[h+j] = df * cache.f[j] * (1 - cache.f[j])
			dpre[2*h+j] = dg * (1 - cache.g[j]*cache.g[j])
			dpre[3*h+j] = do * cache.o[j] * (1 - cache.o[j])
			dcNext[j] = dc * cache.f[j]
		}
		// Accumulate parameter gradients and propagate to inputs/prev state.
		dx := make([]float64, c.inSize)
		dhPrev := make([]float64, h)
		for r := 0; r < 4*h; r++ {
			d := dpre[r]
			if d == 0 {
				continue
			}
			rowX := c.wx.W[r*c.inSize : (r+1)*c.inSize]
			gradX := c.wx.Grad[r*c.inSize : (r+1)*c.inSize]
			for j := range rowX {
				gradX[j] += d * cache.x[j]
				dx[j] += rowX[j] * d
			}
			rowH := c.wh.W[r*h : (r+1)*h]
			gradH := c.wh.Grad[r*h : (r+1)*h]
			for j := range rowH {
				gradH[j] += d * cache.hPrev[j]
				dhPrev[j] += rowH[j] * d
			}
			c.b.Grad[r] += d
		}
		dxs[t] = dx
		dhNext = dhPrev
	}
	return dxs
}

// Dense is a fully connected layer y = W·x + b with optional ReLU.
type Dense struct {
	inSize, outSize int
	w, b            *Param
	relu            bool
}

// NewDense creates a dense layer; relu selects a ReLU output activation,
// matching the paper's "dense layer with ReLU" head. ReLU heads get their
// bias initialized to 0.5 so the unit starts in the active region —
// otherwise a single-output regression head can die before training starts.
func NewDense(inSize, outSize int, relu bool, rng *rand.Rand) (*Dense, error) {
	if inSize < 1 || outSize < 1 {
		return nil, fmt.Errorf("nn: dense sizes %d/%d: %w", inSize, outSize, ErrBadConfig)
	}
	if rng == nil {
		return nil, fmt.Errorf("nn: nil rng: %w", ErrBadConfig)
	}
	d := &Dense{
		inSize:  inSize,
		outSize: outSize,
		w:       newParam(outSize * inSize),
		b:       newParam(outSize),
		relu:    relu,
	}
	xavierInit(d.w.W, inSize+outSize, rng)
	if relu {
		for i := range d.b.W {
			d.b.W[i] = 0.5
		}
	}
	return d, nil
}

// Params returns the layer's learnable tensors.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// denseCache stores forward state for the backward pass.
type denseCache struct {
	x   []float64
	pre []float64
}

// Forward computes the layer output and cache.
func (d *Dense) Forward(x []float64) ([]float64, *denseCache) {
	pre := make([]float64, d.outSize)
	out := make([]float64, d.outSize)
	for r := 0; r < d.outSize; r++ {
		s := d.b.W[r]
		row := d.w.W[r*d.inSize : (r+1)*d.inSize]
		for j, xv := range x {
			s += row[j] * xv
		}
		pre[r] = s
		if d.relu && s < 0 {
			out[r] = 0
		} else {
			out[r] = s
		}
	}
	return out, &denseCache{x: x, pre: pre}
}

// Backward accumulates gradients given ∂L/∂out and returns ∂L/∂x.
func (d *Dense) Backward(cache *denseCache, dout []float64) []float64 {
	dx := make([]float64, d.inSize)
	for r := 0; r < d.outSize; r++ {
		g := dout[r]
		if d.relu && cache.pre[r] < 0 {
			g = 0
		}
		if g == 0 {
			continue
		}
		row := d.w.W[r*d.inSize : (r+1)*d.inSize]
		grad := d.w.Grad[r*d.inSize : (r+1)*d.inSize]
		for j := range row {
			grad[j] += g * cache.x[j]
			dx[j] += row[j] * g
		}
		d.b.Grad[r] += g
	}
	return dx
}
