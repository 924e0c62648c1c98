package serve

import "sync/atomic"

// planCounter counts the fleet forecast requests. Each one is served from
// the plan its snapshot was published with, so each is a hit: no request
// builds a plan, and there is nothing to miss. ?node= requests are not
// counted.
type planCounter struct {
	hits atomic.Int64
}

func (c *planCounter) observe() { c.hits.Add(1) }

// CacheStats reports how many fleet forecast requests reused their
// generation's forecast plan (hit). The plan is built when the snapshot is
// published, so Misses is always 0 and HitRatio 1 once a fleet request has
// been served.
type CacheStats struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
}

func (c *planCounter) stats() CacheStats {
	s := CacheStats{Hits: c.hits.Load()}
	if s.Hits > 0 {
		s.HitRatio = 1
	}
	return s
}
