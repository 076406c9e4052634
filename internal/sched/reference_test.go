package sched

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/labeling"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
	"multicastnet/internal/workload"
)

// refItem is one pending request of the reference packer.
type refItem struct {
	id        uint64
	set       core.MulticastSet // dests sorted ascending
	chans     []dfr.Channel     // every channel traversal of the plan; nil until planned
	dilation  int32
	deferrals int
}

// refPacker replays CloseWindow by the documented packing rules, with
// none of the service's machinery: structured plans from the router,
// per-channel loads in a map over admitted plans only, and a fresh map
// per window.
type refPacker struct {
	router   routing.Router
	budget   int32
	maxDefer int
	queue    []*refItem // carried deferrals first, then arrivals in order
	stats    Stats
}

func (r *refPacker) submit(id uint64, src topology.NodeID, dests []topology.NodeID) {
	ds := slices.Clone(dests)
	slices.Sort(ds)
	r.queue = append(r.queue, &refItem{id: id, set: core.MulticastSet{Source: src, Dests: ds}})
	r.stats.Submitted++
}

// plan routes the item and records its channels and dilation: the
// longest path in hops, or the deepest tree node.
func (r *refPacker) plan(it *refItem) {
	p := r.router.PlanSet(it.set)
	it.chans = []dfr.Channel{}
	for _, pr := range p.Paths {
		it.chans = append(it.chans, pr.Channels()...)
		it.dilation = max(it.dilation, int32(len(pr.Nodes)-1))
	}
	for _, tr := range p.Trees {
		it.chans = append(it.chans, tr.Edges...)
		for _, d := range tr.Depths() {
			it.dilation = max(it.dilation, int32(d))
		}
	}
}

func peak(load map[dfr.Channel]int32) int32 {
	var m int32
	for _, v := range load {
		m = max(m, v)
	}
	return m
}

// closeWindow plans the new arrivals, one lookup per distinct set, and
// packs the queue: the window leader is always admitted; any other
// request is admitted when peak channel load plus peak dilation, with
// it added, stays within the budget, and force-admitted once it has been
// deferred maxDefer times. Budget 0 admits everything.
func (r *refPacker) closeWindow() []uint64 {
	distinct := map[string]bool{}
	for _, it := range r.queue {
		if it.chans == nil {
			distinct[fmt.Sprint(it.set)] = true
			r.plan(it)
		}
	}
	r.stats.Planned += uint64(len(distinct))

	load := map[dfr.Channel]int32{}
	var dil int32
	var admitted []uint64
	var kept []*refItem
	for _, it := range r.queue {
		trial := maps.Clone(load)
		for _, c := range it.chans {
			trial[c]++
		}
		admit := r.budget <= 0 || len(admitted) == 0
		if !admit {
			if peak(trial)+max(dil, it.dilation) <= r.budget {
				admit = true
			} else if it.deferrals >= r.maxDefer {
				admit = true
				r.stats.ForceAdmits++
			}
		}
		if !admit {
			it.deferrals++
			r.stats.Deferred++
			kept = append(kept, it)
			continue
		}
		if r.budget > 0 {
			load = trial
		}
		dil = max(dil, it.dilation)
		admitted = append(admitted, it.id)
		r.stats.Admitted++
	}
	r.queue = kept
	r.stats.Windows++
	r.stats.PeakLoad = max(r.stats.PeakLoad, peak(load))
	r.stats.PeakDilation = max(r.stats.PeakDilation, dil)
	return admitted
}

// TestPackerMatchesReference drives the service and the reference packer
// with the same zipf and uniform streams, ~500 requests per 1024-cycle
// window, under path and tree plans, every budget regime (FIFO, always
// over budget, mostly deferring, mostly admitting) and tight and default
// deferral bounds. Every window must admit the same requests in the
// same order, every channel's load must be back at 0 when the window
// closes, and the cumulative Stats must agree.
func TestPackerMatchesReference(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	st := routing.NewStateWithLabeling(m, labeling.NewMeshBoustrophedon(m))
	const window = 1024
	var deferred, forced uint64
	for _, scheme := range []string{"dual-path", "tree"} {
		r, err := routing.New(scheme, st)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []string{workload.ModelZipf, workload.ModelUniform} {
			spec := workload.Spec{Model: model, Requests: 1500, Groups: 32, MeanGap: 2}
			for _, budget := range []int32{0, 1, 40, 220} {
				for _, maxDefer := range []int{1, 8} {
					name := fmt.Sprintf("%s/%s/budget=%d/maxdefer=%d", scheme, model, budget, maxDefer)
					src, err := workload.New(m, spec, 17)
					if err != nil {
						t.Fatal(err)
					}
					svc := New(Config{Router: routing.Flat(r, routing.NewPlanCache(0)), Budget: budget, MaxDefer: maxDefer})
					ref := &refPacker{router: r, budget: budget, maxDefer: maxDefer}
					req, ok := src.Next()
					var id uint64
					for w := int64(1); ok || svc.Pending() > 0; w++ {
						for ok && req.At < w*window {
							if err := svc.Submit(id, req.Src, req.Dests); err != nil {
								t.Fatal(err)
							}
							ref.submit(id, req.Src, req.Dests)
							id++
							req, ok = src.Next()
						}
						var got []uint64
						for _, a := range svc.CloseWindow() {
							got = append(got, a.ID)
						}
						if want := ref.closeWindow(); !slices.Equal(got, want) {
							t.Fatalf("%s: window %d admitted %v, reference %v", name, w, got, want)
						}
						if id := slices.IndexFunc(svc.loadVal, func(v int32) bool { return v != 0 }); id >= 0 {
							t.Fatalf("%s: window %d left channel %d at load %d", name, w, id, svc.loadVal[id])
						}
					}
					if got, want := svc.Stats(), ref.stats; got != want {
						t.Errorf("%s: stats %+v, reference %+v", name, got, want)
					}
					deferred += ref.stats.Deferred
					forced += ref.stats.ForceAdmits
				}
			}
		}
	}
	if deferred == 0 || forced == 0 {
		t.Errorf("streams never exercised the packer: %d deferrals, %d force-admits", deferred, forced)
	}
}
