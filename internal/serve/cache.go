package serve

import "sync/atomic"

// planCounter accounts for the one piece of forecast work that is shared
// between requests: the fleet ForecastPlan a snapshot builds lazily, at most
// once (core.Snapshot.Plan is the single-flight point — concurrent first
// readers wait for one build). A fleet request that built its generation's
// plan is a miss; one that found it built (or waited for the build) is a hit.
// ?node= requests never touch the fleet plan and are not counted.
type planCounter struct {
	hits   atomic.Int64
	misses atomic.Int64
}

func (c *planCounter) observe(built bool) {
	if built {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
}

// CacheStats reports how often fleet forecast requests reused their
// generation's forecast plan (hit) rather than building it (miss).
type CacheStats struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
}

func (c *planCounter) stats() CacheStats {
	s := CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRatio = Finite64(float64(s.Hits) / float64(total))
	}
	return s
}
