package fault

import (
	"multicastnet/internal/core"
	"multicastnet/internal/routing"
)

// AttachCache gives the router a plan cache consulted by
// PlanDegradedCached and kept consistent by ApplyDelta via targeted
// invalidation. The cache must not be shared with another router: its
// entries are keyed by the epoch-independent ID, so a sharer with other
// faults would be served this router's detours and their accounting.
func (r *LiveRouter) AttachCache(c *routing.PlanCache) { r.cache = c }

// Epoch returns the number of deltas applied so far.
func (r *LiveRouter) Epoch() uint64 { return r.ls.Epoch() }

// Mask returns the cumulative active-fault mask. Callers must treat it
// as read-only; ApplyDelta is the only mutator.
func (r *LiveRouter) Mask() *Mask { return r.mask }

// DeltaReport summarizes one ApplyDelta.
type DeltaReport struct {
	// Epoch is the state's epoch after the delta.
	Epoch uint64
	// Invalidated is how many cached plans the delta evicted (0 without
	// an attached cache, and always 0 for pure-repair deltas).
	Invalidated int
	// ActiveFaults is the mask's active event count after the delta.
	ActiveFaults int
}

// ApplyDelta absorbs one batch of fault/repair events: the cumulative
// mask is updated exactly, the live masked graph is patched in
// O(|delta|), and cached plans touching killed channels are evicted.
// Repair events never evict anything — a plan that avoided dead hardware
// stays valid when the hardware returns; re-optimization happens lazily
// as entries age out or their traffic replans.
func (r *LiveRouter) ApplyDelta(d Delta) DeltaReport {
	r.mask.ApplyDelta(d)
	r.ls.Apply(d.GraphDelta())
	evicted := 0
	if r.cache != nil {
		if pairs := d.DeadChannelPairs(r.healthy.Topology()); len(pairs) > 0 {
			evicted = r.cache.Invalidate(pairs)
		}
	}
	return DeltaReport{
		Epoch:        r.ls.Epoch(),
		Invalidated:  evicted,
		ActiveFaults: r.mask.Events(),
	}
}

// PlanDegradedCached is PlanDegraded through the attached cache. Only
// fully served plans (no unreachable destinations, no error) are cached,
// so a later repair can never surface a stale partial plan; a cache hit
// reports served=true and the PlanStats recorded when the plan was
// produced, so outcomes are byte-identical whether a plan comes fresh or
// from cache. Without an attached cache it is exactly PlanDegraded with
// served=false.
func (r *LiveRouter) PlanDegradedCached(k core.MulticastSet) (routing.Plan, PlanStats, bool, error) {
	if r.cache != nil {
		if p, aux, ok := r.cache.GetPlanAux(r.id, k); ok {
			r.cachedServes++
			return p, statsFromAux(aux), true, nil
		}
	}
	plan, st, err := r.PlanDegraded(k)
	if r.cache != nil && err == nil && st.Unreachable == 0 {
		r.cache.PutPlanAux(r.id, k, plan, auxFromStats(st))
	}
	return plan, st, false, err
}

// auxFromStats and statsFromAux round-trip a fully-served plan's
// accounting flags through the cache's opaque aux word (Unreachable is
// always 0 for cached entries).
func auxFromStats(st PlanStats) uint64 {
	var aux uint64
	if st.FellBack {
		aux |= 1
	}
	if st.Repaired {
		aux |= 2
	}
	return aux
}

func statsFromAux(aux uint64) PlanStats {
	return PlanStats{FellBack: aux&1 != 0, Repaired: aux&2 != 0}
}

// CachedServes returns how many PlanDegradedCached calls were served
// straight from the cache.
func (r *LiveRouter) CachedServes() uint64 { return r.cachedServes }
