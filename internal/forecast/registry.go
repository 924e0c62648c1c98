package forecast

import (
	"fmt"
	"sort"
)

// Candidate is one named entry of a model zoo: a registered family name and
// the builder constructing fresh instances of it. The Ensemble runs one
// instance per candidate per (cluster, dim) and selects the champion online
// (see SelectionConfig).
type Candidate struct {
	// Name is the registered family name (see Families).
	Name string
	// Builder constructs a fresh model instance.
	Builder Builder
}

// registry maps family name → Builder. It is populated at init time by
// mustRegister below and extended by Register; lookups after init are
// read-only from the caller's perspective, so no locking is needed as long
// as Register is called before concurrent use (package init, or program
// startup).
var registry = map[string]Builder{}

// Register adds a named model family to the registry so it can be selected
// by name (forecastd -models, orcf.WithModelZoo). The name must be non-empty
// and not already registered. Call it during program startup, before any
// concurrent registry lookups — e.g. from an init function wiring in an
// external family such as a learned-representation model.
func Register(name string, b Builder) error {
	if name == "" {
		return fmt.Errorf("forecast: empty model family name: %w", ErrBadInput)
	}
	if b == nil {
		return fmt.Errorf("forecast: nil builder for family %q: %w", name, ErrBadInput)
	}
	if _, dup := registry[name]; dup {
		return fmt.Errorf("forecast: model family %q already registered: %w", name, ErrBadInput)
	}
	registry[name] = b
	return nil
}

// mustRegister is the init-time registration helper; the registry is empty
// during init, so the only possible failure is a programming error (duplicate
// name) worth panicking on. docscheck parses this file for mustRegister calls
// to enforce that every registered family name is documented in
// docs/OPERATIONS.md (and vice versa), so names must be string literals.
func mustRegister(name string, b Builder) {
	if err := Register(name, b); err != nil {
		panic(err)
	}
}

func init() {
	mustRegister("sample-and-hold", func() Model { return NewSampleAndHold() })
	mustRegister("historical-mean", func() Model { return NewHistoricalMean() })
	mustRegister("ses", func() Model { m, _ := NewSES(0); return m })
	mustRegister("holt", func() Model { m, _ := NewHolt(0, 0, 0); return m })
	mustRegister("holt-winters", func() Model { m, _ := NewHoltWinters(288); return m })
	mustRegister("ar", func() Model { m, _ := NewAR(4); return m })
	mustRegister("arima", func() Model { return NewAutoARIMA(DefaultGrid()) })
	mustRegister("lstm", func() Model { return NewLSTM(LSTMConfig{}) })
	mustRegister("seasonal-trend", func() Model { return NewSeasonalTrend() })
	mustRegister("lagged-ridge", NewLaggedRidge)
}

// Pinned returns the one-candidate zoo that pins the family b builds, named
// by the Name of a model it returns (b runs once for that).
func Pinned(b Builder) []Candidate { return []Candidate{{Name: b().Name(), Builder: b}} }

// Families returns the registered family names in sorted order.
func Families() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Zoo resolves a list of family names into zoo candidates, preserving order.
// Every name must be registered and the list must be free of duplicates.
func Zoo(names ...string) ([]Candidate, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("forecast: empty model zoo: %w", ErrBadInput)
	}
	seen := make(map[string]bool, len(names))
	out := make([]Candidate, 0, len(names))
	for _, name := range names {
		b, ok := registry[name]
		if !ok {
			return nil, fmt.Errorf("forecast: unknown model family %q (registered: %v): %w",
				name, Families(), ErrBadInput)
		}
		if seen[name] {
			return nil, fmt.Errorf("forecast: duplicate model family %q in zoo: %w", name, ErrBadInput)
		}
		seen[name] = true
		out = append(out, Candidate{Name: name, Builder: b})
	}
	return out, nil
}
