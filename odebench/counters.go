package main

import (
	"context"
	"encoding/json"
	"fmt"

	"ode"
	"ode/client"
)

// counters is a flat view of the public metric registries: every
// counter and gauge by name, and every histogram as <name>.count and
// <name>.sum_ns.
type counters map[string]float64

// add decodes one registry snapshot in its JSON form (what
// Client.MetricsJSON returns) into c, summing names already present.
func (c counters) add(raw []byte) error {
	var snap map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("decode metrics: %w", err)
	}
	for name, v := range snap {
		switch x := v.(type) {
		case float64:
			c[name] += x
		case map[string]any:
			if n, ok := x["Count"].(float64); ok {
				c[name+".count"] += n
			}
			if s, ok := x["Sum"].(float64); ok {
				c[name+".sum_ns"] += s
			}
		}
	}
	return nil
}

// addDB adds an embedded database's registry.
func (c counters) addDB(db *ode.DB) error {
	raw, err := json.Marshal(db.MetricsRegistry().Snapshot())
	if err != nil {
		return fmt.Errorf("encode metrics: %w", err)
	}
	return c.add(raw)
}

// addRemote adds the registry of the server behind cl, and cl's own
// object-cache counters.
func (c counters) addRemote(ctx context.Context, cl *client.Client) error {
	raw, err := cl.MetricsJSON(ctx)
	if err != nil {
		return err
	}
	if err := c.add(raw); err != nil {
		return err
	}
	c.addCache(cl)
	return nil
}

// addCache adds cl's object-cache counters.
func (c counters) addCache(cl *client.Client) {
	m := cl.CacheMetrics()
	c["client.cache_hits"] += float64(m.Hits.Load())
	c["client.cache_misses"] += float64(m.Misses.Load())
}

// div is a/b, or 0 when b is 0 (a ratio with nothing to count).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mean is the mean of a histogram's samples in µs, from its sum and
// count deltas over a phase.
func (p *phase) meanUs(hist string) float64 {
	return div(p.delta(hist+".sum_ns"), p.delta(hist+".count")) / 1e3
}
