package wormsim

import (
	"fmt"
	"reflect"
	"testing"

	"multicastnet/internal/dfr"
	"multicastnet/internal/labeling"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
)

// shardTestCounts are the shard counts every determinism test compares
// against the serial engine.
var shardTestCounts = []int{2, 4, 8}

// shardTopologies are the (topology, labeling) pairs the determinism
// matrix covers.
func shardTopologies() []struct {
	name string
	topo topology.Topology
	lab  labeling.Labeling
} {
	m := topology.NewMesh2D(8, 8)
	h := topology.NewHypercube(6)
	return []struct {
		name string
		topo topology.Topology
		lab  labeling.Labeling
	}{
		{"mesh8x8", m, labeling.NewMeshBoustrophedon(m)},
		{"hypercube64", h, labeling.NewHypercubeGray(h)},
	}
}

// shardFaults is a two-epoch fault plan: node 10's outgoing channels die
// early, node 27's die later. Routes are not recomputed, so traffic keeps
// hitting the dead hardware — the kill, loss and wake paths all run under
// the sharded engine.
func shardFaults() []ScheduledFault {
	return []ScheduledFault{
		{Cycle: 2_000, Dead: func(c dfr.Channel) bool { return c.From == 10 }},
		{Cycle: 6_000, Dead: func(c dfr.Channel) bool { return c.From == 27 }},
	}
}

// TestShardedRunMatchesSerial is the tentpole acceptance test: for every
// registry scheme buildable on each topology, with and without a mid-run
// fault plan, a Run at shard counts {2,4,8} must reproduce the serial
// Result field for field — latency means, CI half-widths (delivery-order
// sensitive), completion, loss and kill counts, cycle counts, everything.
// Check mode audits the full channel/queue/accounting invariants at every
// periodic boundary of every run.
func TestShardedRunMatchesSerial(t *testing.T) {
	for _, tc := range shardTopologies() {
		st := routing.NewStateWithLabeling(tc.topo, tc.lab)
		for _, name := range routing.Names() {
			r, err := routing.New(name, st)
			if err != nil {
				continue // scheme does not build on this topology
			}
			for _, faulty := range []bool{false, true} {
				cfg := Config{
					Topology:               tc.topo,
					MeanInterarrivalMicros: 120,
					AvgDests:               8,
					Seed:                   1234,
					WarmupDeliveries:       50,
					BatchSize:              50,
					MinBatches:             4,
					MaxCycles:              30_000,
					Check:                  true,
				}
				if lr, ok := r.(routing.LiveRouter); ok {
					cfg.LiveRoute = LiveRouteFuncOf(lr)
				} else {
					cfg.Route = RouteFuncOf(r)
				}
				if faulty {
					cfg.Faults = shardFaults()
				}
				label := fmt.Sprintf("%s/%s/faulty=%v", tc.name, name, faulty)
				want, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s serial: %v", label, err)
				}
				if want.Delivered == 0 && !want.Deadlocked {
					t.Fatalf("%s delivered nothing; comparison is vacuous", label)
				}
				for _, shards := range shardTestCounts {
					cfg.Shards = shards
					got, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s shards=%d: %v", label, shards, err)
					}
					if got != want {
						t.Fatalf("%s shards=%d diverged:\nserial:  %+v\nsharded: %+v",
							label, shards, want, got)
					}
				}
				cfg.Shards = 0
			}
		}
	}
}

// eventTrace records the full observable event stream of a network — the
// exact order and payload of every delivery, completion and loss — plus
// per-cycle progress flags, for byte-level comparison between engines.
type eventTrace struct {
	events []string
}

func traceNetwork(net *Network) *eventTrace {
	tr := &eventTrace{}
	net.OnDelivery(func(d topology.NodeID, lat int64) {
		tr.events = append(tr.events, fmt.Sprintf("deliver %d @%d", d, lat))
	})
	net.OnDeliveryDetail(func(d topology.NodeID, lat int64, size int) {
		tr.events = append(tr.events, fmt.Sprintf("detail %d @%d size=%d", d, lat, size))
	})
	net.OnComplete(func(lat int64) {
		tr.events = append(tr.events, fmt.Sprintf("complete @%d", lat))
	})
	net.OnLost(func(d topology.NodeID, size int) {
		tr.events = append(tr.events, fmt.Sprintf("lost %d size=%d", d, size))
	})
	return tr
}

// TestShardedEventStreamIdentical drives serial and sharded networks
// through an identical injection/fault/step script and requires the
// complete callback streams — order included — to match, along with the
// invariant audit and deadlock view after every cycle. The script mixes
// path worms with lock-step tree worms whose frontiers span shard
// regions, and kills channels mid-run.
func TestShardedEventStreamIdentical(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	st := routing.NewStateWithLabeling(m, labeling.NewMeshBoustrophedon(m))
	dual, err := routing.New("dual-path", st)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := routing.New("tree", st)
	if err != nil {
		t.Fatal(err)
	}

	type spawn struct {
		cycle int64
		r     routing.Router
		src   topology.NodeID
		dests []topology.NodeID
	}
	script := []spawn{
		{0, dual, 0, []topology.NodeID{9, 18, 27, 63}},
		{0, tree, 5, []topology.NodeID{12, 21, 30, 39, 60}},
		{1, tree, 36, []topology.NodeID{0, 7, 56, 63, 28}},
		{2, dual, 63, []topology.NodeID{0, 8, 16}},
		{3, dual, 32, []topology.NodeID{39, 47, 55}},
		{5, tree, 27, []topology.NodeID{3, 24, 45, 58}},
		{9, dual, 7, []topology.NodeID{56, 42}},
	}
	const (
		lengthFlits = 16
		cycles      = 400
		failAt      = 12
	)

	run := func(shards int) (*eventTrace, []string) {
		net := NewNetwork(m)
		if shards > 1 {
			net.SetShards(shards)
			defer net.Close()
		}
		tr := traceNetwork(net)
		var audit []string
		next := 0
		for c := int64(0); c < cycles; c++ {
			for next < len(script) && script[next].cycle <= c {
				s := script[next]
				p, err := s.r.Plan(s.src, s.dests)
				if err != nil {
					t.Fatal(err)
				}
				net.InjectMulticast(p.Paths, p.Trees, lengthFlits)
				next++
			}
			if c == failAt {
				killed := net.FailWhere(func(ch dfr.Channel) bool { return ch.From == 36 })
				audit = append(audit, fmt.Sprintf("cycle %d killed %d", c, killed))
			}
			moved := net.Step()
			audit = append(audit, fmt.Sprintf("cycle %d moved=%v inflight=%d deadlock=%v",
				c, moved, net.ActiveWorms(), net.DetectDeadlock()))
			if err := net.CheckInvariants(); err != nil {
				t.Fatalf("shards=%d cycle %d: %v", shards, c, err)
			}
		}
		return tr, audit
	}

	wantTr, wantAudit := run(1)
	found := false
	for _, e := range wantTr.events {
		if len(e) >= 4 && e[:4] == "lost" {
			found = true
		}
	}
	if !found {
		t.Fatal("script killed no deliveries; fault coverage is vacuous")
	}
	for _, shards := range shardTestCounts {
		gotTr, gotAudit := run(shards)
		if !reflect.DeepEqual(gotTr.events, wantTr.events) {
			t.Fatalf("shards=%d event stream diverged:\nserial:  %v\nsharded: %v",
				shards, wantTr.events, gotTr.events)
		}
		if !reflect.DeepEqual(gotAudit, wantAudit) {
			t.Fatalf("shards=%d audit diverged:\nserial:  %v\nsharded: %v",
				shards, wantAudit, gotAudit)
		}
	}
}

// TestFlatInjectionMatchesRouteForm runs the same workload through the
// route-form injector and the dense CSR injector (InjectFlat), serial and
// sharded: identical Results prove the flattening preserves worm
// construction — channel order, delivery positions, tree frontiers — bit
// for bit.
func TestFlatInjectionMatchesRouteForm(t *testing.T) {
	for _, tc := range shardTopologies() {
		st := routing.NewStateWithLabeling(tc.topo, tc.lab)
		for _, name := range []string{"dual-path", "multi-path", "tree", "virtual-channel"} {
			r, err := routing.New(name, st)
			if err != nil {
				continue
			}
			cfg := Config{
				Topology:               tc.topo,
				Route:                  RouteFuncOf(r),
				MeanInterarrivalMicros: 150,
				AvgDests:               8,
				Seed:                   99,
				WarmupDeliveries:       50,
				BatchSize:              50,
				MinBatches:             4,
				MaxCycles:              25_000,
				Check:                  true,
			}
			want, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s route-form: %v", tc.name, name, err)
			}
			if want.Delivered == 0 {
				t.Fatalf("%s/%s delivered nothing", tc.name, name)
			}
			for _, shards := range []int{0, 4} {
				cfg.Route = FlatRouteFuncOf(routing.Flat(r, routing.NewPlanCache(0)))
				cfg.Shards = shards
				got, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s/%s flat shards=%d: %v", tc.name, name, shards, err)
				}
				if got != want {
					t.Fatalf("%s/%s flat shards=%d diverged:\nroute: %+v\nflat:  %+v",
						tc.name, name, shards, want, got)
				}
			}
		}
	}
}

// TestSetShardsGuards pins the API contract: shards must be configured
// before any traffic, at most once, and Close is idempotent.
func TestSetShardsGuards(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	net := NewNetwork(m)
	net.SetShards(4)
	if got := net.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second SetShards did not panic")
			}
		}()
		net.SetShards(2)
	}()
	net.Close()
	net.Close()

	late := NewNetwork(m)
	late.InjectMulticast([]dfr.PathRoute{{Nodes: []topology.NodeID{0, 1}, Dests: []topology.NodeID{1}}}, nil, 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetShards after injection did not panic")
			}
		}()
		late.SetShards(2)
	}()

	serial := NewNetwork(m)
	serial.SetShards(1)
	if got := serial.Shards(); got != 1 {
		t.Fatalf("Shards() = %d, want 1 for serial", got)
	}
	serial.Close()
}
