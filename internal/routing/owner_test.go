package routing_test

import (
	"strings"
	"testing"

	"multicastnet/internal/fault"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
)

// TestCacheHasOneOwner: a plan cache's keys hold the multicast set
// alone, so it serves the first router handed it and handing it to a
// second one panics, naming the owner's scheme — whichever of Cached,
// Flat and fault.LiveRouter.AttachCache made each hand-off.
func TestCacheHasOneOwner(t *testing.T) {
	st, err := routing.NewState(topology.NewMesh2D(6, 6))
	if err != nil {
		t.Fatal(err)
	}
	dual, err := routing.New("dual-path", st)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := routing.New("fixed-path", st)
	if err != nil {
		t.Fatal(err)
	}
	live, err := fault.NewLiveRouter("fixed-path", st, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		first, second func(*routing.PlanCache)
	}{
		{"Flat after Cached",
			func(c *routing.PlanCache) { routing.Cached(dual, c) },
			func(c *routing.PlanCache) { routing.Flat(dual, c) }},
		{"Cached after Flat",
			func(c *routing.PlanCache) { routing.Flat(dual, c) },
			func(c *routing.PlanCache) { routing.Cached(dual, c) }},
		{"second router through Cached",
			func(c *routing.PlanCache) { routing.Cached(dual, c) },
			func(c *routing.PlanCache) { routing.Cached(fixed, c) }},
		{"second router through Flat",
			func(c *routing.PlanCache) { routing.Flat(dual, c) },
			func(c *routing.PlanCache) { routing.Flat(fixed, c) }},
		{"AttachCache after Cached",
			func(c *routing.PlanCache) { routing.Cached(dual, c) },
			live.AttachCache},
	} {
		c := routing.NewPlanCache(8)
		tc.first(c)
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "dual-path") {
					t.Errorf("%s: recovered %v, want a panic naming the owner dual-path", tc.name, r)
				}
			}()
			tc.second(c)
		}()
	}
}
