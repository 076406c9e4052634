package wormsim

import (
	"fmt"
	"math"
	"testing"

	"multicastnet/internal/allocs"
	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
	"multicastnet/internal/stats"
	"multicastnet/internal/switching"
	"multicastnet/internal/topology"
)

// resetStats records whether the reset oracle's cases reached what a
// stale engine would show in: a run abandoned with worms queued on a
// channel and a dead channel, and replays that lose deliveries to a
// fault and report a deadlock cycle (the only place worm ids show).
type resetStats struct {
	abandonedQueued, abandonedDead bool
	lost, deadlocked               bool
}

// recordCase runs case c on net, which must be empty and over c's
// topology, for at most stop cycles: a multicast per script byte as in
// simulateDeadlockCase, tagged with its index, the outgoing channels of
// one node failed at cycle failAt when it is non-zero, the invariant
// audit after every Step and a deadlock search every 1+period%8 cycles.
// It returns every delivery, loss and completion with its cycle, every
// deadlock verdict, and the final cycle, one line each.
func recordCase(t *testing.T, net *Network, c ddCase, stop int64, st *resetStats) []string {
	t.Helper()
	topo := net.topo
	r, name := c.router(t, topo)
	var log []string
	net.OnDelivery(func(d topology.NodeID, lat int64, size int) {
		log = append(log, fmt.Sprintf("%d: delivered %d after %d of %d", net.Cycle(), d, lat, size))
	})
	net.OnLost(func(d topology.NodeID, size int) {
		log = append(log, fmt.Sprintf("%d: lost %d of %d", net.Cycle(), d, size))
		st.lost = true
	})
	net.OnCompleteTag(func(tag uint64, lat int64) {
		log = append(log, fmt.Sprintf("%d: multicast %d completed after %d", net.Cycle(), tag, lat))
	})
	rng := stats.NewRand(c.seed)
	script := c.script
	if len(script) > 48 {
		script = script[:48]
	}
	length := 1 + int(c.length)%12
	period := 1 + int64(c.period)%8
	failNode := topology.NodeID(rng.Intn(topo.Nodes()))
	draw := newDestDraw(topo.Nodes())
	next, at := 0, int64(0)
	if len(script) > 0 {
		at = int64(script[0] & 3)
	}
	for cycle := int64(0); cycle < stop; cycle++ {
		for next < len(script) && at <= cycle {
			src := topology.NodeID(rng.Intn(topo.Nodes()))
			k := core.MulticastSet{Source: src, Dests: draw.dests(rng, src, 1+int(script[next]>>2)%(topo.Nodes()-1))}
			net.InjectFlatTag(routing.Flatten(topo, plan(r, k, net)), length, uint64(next))
			if next++; next < len(script) {
				at += int64(script[next] & 3)
			}
		}
		if c.failAt > 0 && cycle == int64(c.failAt) {
			killed := net.FailWhere(func(ch dfr.Channel) bool { return ch.From == failNode })
			log = append(log, fmt.Sprintf("%d: failure at node %d killed %d", net.Cycle(), failNode, killed))
		}
		net.Step()
		if err := net.CheckInvariants(); err != nil {
			t.Fatalf("%s %s cycle %d: %v", topo.Name(), name, net.Cycle(), err)
		}
		if net.Cycle()%period == 0 {
			ids := net.DetectDeadlock()
			log = append(log, fmt.Sprintf("%d: deadlock %v", net.Cycle(), ids))
			st.deadlocked = st.deadlocked || ids != nil
		}
		if next == len(script) && net.Idle() {
			break
		}
	}
	return append(log, fmt.Sprintf("%d: stopped, %d worms in flight, %d killed", net.Cycle(), net.ActiveWorms(), net.KilledWorms()))
}

// checkResetMatchesFresh runs stream on a fresh network and on net reset
// after dirty traffic: dirty run to its end, then dirty again with its
// failure moved early and abandoned mid-flight. Every event, verdict and
// the final cycle must agree.
func checkResetMatchesFresh(t *testing.T, net *Network, stream, dirty ddCase, st *resetStats) {
	t.Helper()
	want := recordCase(t, NewNetwork(stream.topology()), stream, 4000, st)

	net.Reset(dirty.topology())
	recordCase(t, net, dirty, 4000, st)
	net.Reset(dirty.topology())
	dirty.failAt = 1 + dirty.failAt%16
	recordCase(t, net, dirty, int64(dirty.failAt)+8, st)
	for _, c := range net.chanSt {
		st.abandonedQueued = st.abandonedQueued || c.head != 0
		st.abandonedDead = st.abandonedDead || c.owner == deadChan
	}

	net.Reset(stream.topology())
	got := recordCase(t, net, stream, 4000, &resetStats{})
	for i := 0; i < len(want) || i < len(got); i++ {
		w, g := "(nothing)", "(nothing)"
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Fatalf("event %d of the stream: fresh network %q, reset network %q", i, w, g)
		}
	}
}

// TestResetMatchesFresh is the reset oracle: a network reset after
// unrelated traffic, including a run abandoned with worms queued and
// channels dead, replays every fuzz seed exactly as a fresh network
// does. One network carries every case, so its dirt accumulates across
// meshes and cubes. The seeds must reach the situations a stale reset
// would show in, or the agreement is vacuous.
func TestResetMatchesFresh(t *testing.T) {
	net := new(Network)
	var st resetStats
	for i, c := range ddSeeds {
		checkResetMatchesFresh(t, net, c, ddSeeds[(i+1)%len(ddSeeds)], &st)
	}
	if !st.abandonedQueued || !st.abandonedDead || !st.lost || !st.deadlocked {
		t.Fatalf("coverage is vacuous: %+v", st)
	}
}

// FuzzResetMatchesFresh is TestResetMatchesFresh over fuzzer-chosen
// streams and dirty traffic.
func FuzzResetMatchesFresh(f *testing.F) {
	for i, c := range ddSeeds {
		d := ddSeeds[(i+1)%len(ddSeeds)]
		f.Add(c.topo, c.size, c.scheme, c.seed, c.script, c.length, c.failAt, c.period,
			d.topo, d.size, d.scheme, d.seed, d.script, d.length, d.failAt, d.period)
	}
	f.Fuzz(func(t *testing.T, topo, size, scheme uint8, seed uint64, script []byte, length, failAt, period uint8,
		dTopo, dSize, dScheme uint8, dSeed uint64, dScript []byte, dLength, dFailAt, dPeriod uint8) {
		checkResetMatchesFresh(t, new(Network),
			ddCase{topo, size, scheme, seed, script, length, failAt, period},
			ddCase{dTopo, dSize, dScheme, dSeed, dScript, dLength, dFailAt, dPeriod}, &resetStats{})
	})
}

// zeroLoadCycles is the contention-free wormhole latency of Section 2.2,
// (Lf/B)·D + L/B, in wormsim's cycles: one cycle is one flit time Lf/B,
// and wormsim counts from the spawn cycle, in which the header has not
// moved yet, so a destination at distance D gets the last of L flits
// D + L − 1 cycles after the spawn.
func zeroLoadCycles(d, flits int) int64 {
	p := switching.Params{MessageBytes: float64(flits * FlitBytes), Bandwidth: BandwidthMBps, FlitBytes: FlitBytes}
	return int64(math.Round(switching.Latency(switching.Wormhole, p, d)/FlitMicros)) - 1
}

// routeDistances returns each destination's hop count along the routes
// of p, read from the route form: a path destination's first position, a
// tree destination's depth. It also reports whether the routes use every
// channel at most once, all of them together.
func routeDistances(p routing.Plan) (map[topology.NodeID]int, bool) {
	dist := map[topology.NodeID]int{}
	used := map[dfr.Channel]bool{}
	disjoint := true
	use := func(c dfr.Channel) {
		disjoint = disjoint && !used[c]
		used[c] = true
	}
	for _, pr := range p.Paths {
		at := map[topology.NodeID]int{}
		for i, v := range pr.Nodes {
			if _, ok := at[v]; !ok {
				at[v] = i
			}
			if i > 0 {
				class := pr.Class
				if pr.Classes != nil {
					class = pr.Classes[i-1]
				}
				use(dfr.Channel{From: pr.Nodes[i-1], To: v, Class: class})
			}
		}
		for _, d := range pr.Dests {
			dist[d] = at[d]
		}
	}
	for _, tr := range p.Trees {
		depth := map[topology.NodeID]int{tr.Root: 0}
		for _, e := range tr.Edges {
			depth[e.To] = depth[e.From] + 1
			use(e)
		}
		for _, d := range tr.Dests {
			dist[d] = depth[d]
		}
	}
	return dist, disjoint
}

// TestZeroLoadLatency checks the engine against the closed form of
// Section 2.2, which shares no data structure with it: a lone multicast
// in an empty network, fresh or reset after earlier traffic, delivers
// each destination no earlier than the contention-free wormhole latency
// over its route distance, and exactly at it when the plan's routes use
// every channel at most once. Every registry scheme runs on meshes and
// cubes, and each must plan channel-disjoint routes for some set, so the
// exact check runs for all of them.
func TestZeroLoadLatency(t *testing.T) {
	reused := new(Network)
	for _, topo := range []topology.Topology{topology.NewMesh2D(6, 5), topology.NewMesh2D(8, 8),
		topology.NewHypercube(4), topology.NewHypercube(6)} {
		st, err := routing.NewState(topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range routing.Schemes() {
			r, err := info.Build(st, routing.Options{})
			if err != nil {
				continue // scheme unsupported on this topology
			}
			rng := stats.NewRand(uint64(topo.Nodes()))
			draw := newDestDraw(topo.Nodes())
			exact := 0
			for i := 0; i < 40; i++ {
				src := topology.NodeID(rng.Intn(topo.Nodes()))
				k := core.MulticastSet{Source: src, Dests: draw.dests(rng, src, 1+rng.Intn(topo.Nodes()/2))}
				flits := []int{1, 7, 32}[i%3]
				fresh := NewNetwork(topo)
				reused.Reset(topo)
				p := plan(r, k, fresh)
				dist, disjoint := routeDistances(p)
				if disjoint {
					exact++
				}
				fp := routing.Flatten(topo, p)
				for _, net := range []*Network{fresh, reused} {
					got := map[topology.NodeID]int64{}
					net.OnDelivery(func(d topology.NodeID, lat int64, _ int) { got[d] = lat })
					net.InjectFlatTag(fp, flits, 0)
					if !runUntilQuiet(net, 1000) {
						t.Fatalf("%s on %s: a lone multicast did not drain", info.Name, topo.Name())
					}
					if len(got) != len(k.Dests) {
						t.Fatalf("%s on %s: %d of %d destinations delivered", info.Name, topo.Name(), len(got), len(k.Dests))
					}
					for _, d := range k.Dests {
						want := zeroLoadCycles(dist[d], flits)
						if got[d] < want || disjoint && got[d] != want {
							t.Fatalf("%s on %s, %d flits: destination %d at distance %d delivered after %d cycles, want %d (routes channel-disjoint: %v)",
								info.Name, topo.Name(), flits, d, dist[d], got[d], want, disjoint)
						}
					}
				}
			}
			if exact == 0 {
				t.Errorf("%s on %s planned no channel-disjoint routes in 40 sets: the exact check never ran", info.Name, topo.Name())
			}
		}
	}
}

// TestResetReplayAllocationFree pins the point of Reset: a network reset
// and replaying a stream — mixed paths and trees, a mid-drain failure,
// the invariant audit and a deadlock search after every cycle —
// allocates nothing after its first pass, counted exactly over a
// thousand replays.
func TestResetReplayAllocationFree(t *testing.T) {
	m, plans := arenaWorkload(t)
	fps := make([]*routing.FlatPlan, len(plans))
	for i, p := range plans {
		fps[i] = routing.Flatten(m, p)
	}
	crossFault := func(c dfr.Channel) bool { return c.From == 36 && c.To == 37 }
	delivered, lost := 0, 0
	onDelivery := func(topology.NodeID, int64, int) { delivered++ }
	onLost := func(topology.NodeID, int) { lost++ }
	net := NewNetwork(m)
	allocs.Exact(t, "reset replay", 0, func(int) {
		net.Reset(m)
		net.OnDelivery(onDelivery)
		net.OnLost(onLost)
		for _, fp := range fps {
			net.InjectFlatTag(fp, 16, 0)
			net.Step()
		}
		for i := 0; net.ActiveWorms() > 0; i++ {
			if i == 3 {
				net.FailWhere(crossFault)
			}
			net.Step()
			if err := net.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if ids := net.DetectDeadlock(); ids != nil {
				t.Fatalf("deadlock-free workload deadlocked: %v", ids)
			}
		}
	})
	if delivered == 0 || lost == 0 {
		t.Fatalf("replays delivered %d and lost %d destinations; want both", delivered, lost)
	}
}
