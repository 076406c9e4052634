package wormsim

import (
	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
)

// This file adapts the unified routing engine (internal/routing) to the
// simulator: a routing.Router, built through the routing registry, plans
// each multicast and the adapter hands the plan to Run.

// RouteFuncOf adapts a routing.Router to the simulator's RouteFunc.
// Wrap the router with routing.Cached to share plans across injections.
func RouteFuncOf(r routing.Router) RouteFunc {
	return func(k core.MulticastSet) Injection {
		p := r.PlanSet(k)
		return Injection{Paths: p.Paths, Trees: p.Trees}
	}
}

// FlatRouteFuncOf adapts a routing.FlatRouter to the simulator: plans are
// served in dense CSR form, so Run injects them without flattening — a
// cached plan is flattened once, when it is first planned. Behaviour is
// identical to RouteFuncOf over the same underlying router.
func FlatRouteFuncOf(r *routing.FlatRouter) RouteFunc {
	return func(k core.MulticastSet) Injection {
		return Injection{Flat: r.FlatSet(k)}
	}
}

// LiveRouteFuncOf adapts a routing.LiveRouter to the simulator's
// congestion-aware LiveRouteFunc.
func LiveRouteFuncOf(r routing.LiveRouter) LiveRouteFunc {
	return func(k core.MulticastSet, oracle dfr.ChannelOracle) Injection {
		p := r.PlanLive(k, oracle)
		return Injection{Paths: p.Paths, Trees: p.Trees}
	}
}
