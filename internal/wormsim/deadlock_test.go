package wormsim

import (
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// detectDeadlockRef is the all-ahead reference for DetectDeadlock. It
// builds the full wait-for relation by worm id — a live worm waits for
// the owner of every channel its header needs and for every live waiter
// queued ahead of it there, all of them when it is not queued itself —
// and returns the ids of one cycle in DetectDeadlock's orientation (each
// waits for the one before it, the first for the last), or nil, together
// with the relation.
func detectDeadlockRef(n *Network) (cycle []int, waits map[int][]int) {
	waits = map[int][]int{}
	var order []int
	live := func(wi wormRef) bool { return wi >= 0 && !n.slots[wi].done }
	need := func(wi wormRef, id int32) {
		u := n.slots[wi].id
		if o := n.chanSt[id].owner; live(o) && o != wi {
			waits[u] = append(waits[u], n.slots[o].id)
		}
		for _, q := range n.waiters(id) {
			if q == wi {
				break
			}
			if live(q) {
				waits[u] = append(waits[u], n.slots[q].id)
			}
		}
	}
	for _, wi := range n.worms {
		w := &n.slots[wi]
		if w.done {
			continue
		}
		order = append(order, w.id)
		if w.headIdx == w.depth() {
			continue
		}
		for _, id := range w.level(w.headIdx) {
			if n.chanSt[id].owner != wi {
				need(wi, id)
			}
		}
	}
	const (
		onPath = 1
		done   = 2
	)
	state := map[int]int{}
	var path []int
	var visit func(u int) bool
	visit = func(u int) bool {
		state[u] = onPath
		path = append(path, u)
		for _, v := range waits[u] {
			switch state[v] {
			case onPath:
				i := len(path) - 1
				for path[i] != v {
					i--
				}
				for k := len(path) - 1; k >= i; k-- {
					cycle = append(cycle, path[k])
				}
				return true
			case 0:
				if visit(v) {
					return true
				}
			}
		}
		path = path[:len(path)-1]
		state[u] = done
		return false
	}
	for _, u := range order {
		if state[u] == 0 && visit(u) {
			return cycle, waits
		}
	}
	return nil, waits
}

// checkWaitCycle fails unless ids are distinct worms that each wait for
// the one before them, the first for the last, in the relation waits.
func checkWaitCycle(t *testing.T, label string, ids []int, waits map[int][]int) {
	t.Helper()
	if len(ids) < 2 {
		t.Fatalf("%s: cycle %v is shorter than two worms", label, ids)
	}
	seen := map[int]bool{}
	for k, u := range ids {
		if seen[u] {
			t.Fatalf("%s: cycle %v repeats worm %d", label, ids, u)
		}
		seen[u] = true
		waiter := ids[(k+1)%len(ids)]
		found := false
		for _, v := range waits[waiter] {
			found = found || v == u
		}
		if !found {
			t.Fatalf("%s: cycle %v: worm %d does not wait for worm %d", label, ids, waiter, u)
		}
	}
}

// ddSchemes are the schemes the deadlock fuzz draws from: every registry
// scheme, in name order, so a new table row is fuzzed with no edit here.
// Adaptive ones route around live congestion at injection.
var ddSchemes = routing.Names()

// ddCase is one fuzzed simulation: a small mesh (even topo) or hypercube
// (odd topo) sized by size, the first scheme at or after ddSchemes[scheme]
// that builds on it, one random multicast per script byte (low two bits:
// the gap in cycles after the previous one; the rest: the average
// destination count), messages of 1+length%12 flits, the outgoing
// channels of one node failed at cycle failAt when it is non-zero, and
// deadlock checks every 1+period%64 cycles in the periodic run.
type ddCase struct {
	topo, size, scheme uint8
	seed               uint64
	script             []byte
	length, failAt     uint8
	period             uint8
}

// ddSeeds are the fuzz seeds; TestDetectDeadlockMatchesReference runs
// them as a fixed regression suite. The two after the first ten close a
// cycle through a worm that has advanced but is not yet queued on its
// next channel. In the periodic run of the next one the first check
// already finds a cycle, which the second must find again; in the last
// one's, a fault removes a worm from the middle of a FIFO between two
// checks.
var ddSeeds = []ddCase{
	{topo: 0, size: 10, scheme: 6, seed: 1, script: []byte{20, 24, 28, 32, 20, 24, 28, 32, 36, 40, 44, 48}, length: 8, period: 63},
	{topo: 0, size: 15, scheme: 6, seed: 7, script: []byte{60, 61, 62, 63, 60, 61, 62, 63, 60, 61}, length: 11, period: 7},
	{topo: 0, size: 5, scheme: 6, seed: 3, script: []byte{12, 16, 20, 24, 28, 12, 16, 20}, length: 6, failAt: 9, period: 3},
	{topo: 0, size: 10, scheme: 7, seed: 11, script: []byte{40, 41, 42, 43, 44, 45, 46, 47, 48, 49}, length: 9, failAt: 14, period: 5},
	{topo: 0, size: 6, scheme: 2, seed: 5, script: []byte{8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, length: 7, period: 15},
	{topo: 0, size: 9, scheme: 5, seed: 13, script: []byte{24, 25, 26, 27, 24, 25, 26, 27}, length: 5, failAt: 6, period: 1},
	{topo: 1, size: 2, scheme: 1, seed: 17, script: []byte{32, 0, 1, 2, 3, 32, 33, 34}, length: 10, period: 31},
	{topo: 1, size: 3, scheme: 4, seed: 19, script: []byte{16, 17, 18, 19, 20, 21, 22, 23}, length: 4, failAt: 5, period: 2},
	{topo: 0, size: 12, scheme: 0, seed: 23, script: []byte{12, 13, 14, 15, 16, 17, 18, 19}, length: 12, period: 9},
	{topo: 1, size: 1, scheme: 8, seed: 29, script: []byte{28, 29, 30, 31, 28, 29}, length: 3, failAt: 3, period: 4},
	{topo: 0, size: 0, scheme: 6, seed: 112, script: []byte{0xb2, 0xd2, 0xd8, 0x60, 0x36, 0x2e, 0x5d, 0x8e,
		0x1e, 0xca, 0x9e, 0xb2, 0x62, 0x1f, 0xc3}, length: 11, failAt: 7},
	{topo: 0, size: 1, scheme: 6, seed: 187, script: []byte{0x0d, 0x5e, 0x80, 0x5f, 0x3a, 0xa9, 0x43, 0x10,
		0xfb, 0x73, 0x72, 0x85, 0xe4, 0xde, 0x22, 0xdc, 0x46, 0x86, 0x29, 0x55, 0x70}, length: 8},
	{topo: 0xfe, size: 6, scheme: 0x21, seed: 0x37a, script: []byte{0x6b, 0xa9, 0x89, 0x53, 0x48, 0x9c, 0x41,
		0xc0, 0x2e, 0x66, 0xfa}, length: 4, period: 0x1c},
	{topo: 0x4e, size: 0x7b, scheme: 0, seed: 0x38a, script: []byte{0x25, 0x02, 0xd1, 0x25, 0xa6, 0x62, 0x88,
		0x04, 0xeb, 0x2a, 0xdc, 0x94, 0x51, 0x67}, length: 0x99, failAt: 0x23, period: 0x18},
}

// ddStats counts the checks cases made and how many found a cycle, and
// records whether the cases reached the situations the search's start
// points exist for.
type ddStats struct {
	checks, deadlocked int
	faulted            bool
	// foundAgain: a run's first check found a cycle and its second
	// found one again.
	foundAgain bool
	// midDequeue: after a check that found no cycle, a fault removed a
	// queued worm with a waiter behind it, and a later check ran.
	midDequeue bool
}

func (s *ddStats) add(o ddStats) {
	s.checks += o.checks
	s.deadlocked += o.deadlocked
	s.faulted = s.faulted || o.faulted
	s.foundAgain = s.foundAgain || o.foundAgain
	s.midDequeue = s.midDequeue || o.midDequeue
}

// runDeadlockCase simulates c twice: once checking after every
// injection burst and every Step, once checking only every 1+period%64
// cycles, the way Run checks every 64, so that the worms whose wait-for
// edges changed pile up between checks. Each check requires that
// DetectDeadlock finds a cycle exactly when the all-ahead reference
// does, and that any cycle it returns is one of the reference relation;
// the full invariants, queue membership and the active list among them,
// must hold after every Step.
func runDeadlockCase(t *testing.T, c ddCase) ddStats {
	var res ddStats
	res.add(simulateDeadlockCase(t, c, 0))
	res.add(simulateDeadlockCase(t, c, 1+int64(c.period)%64))
	return res
}

// simulateDeadlockCase is one run of runDeadlockCase; period 0 checks
// around every Step.
func simulateDeadlockCase(t *testing.T, c ddCase, period int64) ddStats {
	var topo topology.Topology
	if c.topo%2 == 0 {
		topo = topology.NewMesh2D(2+int(c.size)%4, 2+int(c.size/4)%4)
	} else {
		topo = topology.NewHypercube(2 + int(c.size)%4)
	}
	st, err := routing.NewState(topo)
	if err != nil {
		t.Fatal(err)
	}
	var r routing.Router
	name := ""
	for k := 0; r == nil && k < len(ddSchemes); k++ {
		name = ddSchemes[(int(c.scheme)+k)%len(ddSchemes)]
		r, _ = routing.New(name, st)
	}
	if r == nil {
		t.Fatalf("no deadlock-fuzz scheme builds on %s", topo.Name())
	}
	net := NewNetwork(topo)
	var res ddStats
	rng := stats.NewRand(c.seed)
	script := c.script
	if len(script) > 48 {
		script = script[:48]
	}
	length := 1 + int(c.length)%12
	failNode := topology.NodeID(rng.Intn(topo.Nodes()))
	var verdicts []bool // every check's verdict, in order
	midDequeue := false // a fault removed a worm from mid-FIFO since the last clean check
	check := func(label string) {
		t.Helper()
		got := net.DetectDeadlock()
		want, waits := detectDeadlockRef(net)
		res.checks++
		if (got == nil) != (want == nil) {
			t.Fatalf("%s %s cycle %d %s (checks every %d cycles): DetectDeadlock = %v, reference = %v",
				topo.Name(), name, net.Cycle(), label, period, got, want)
		}
		res.foundAgain = res.foundAgain || len(verdicts) == 1 && verdicts[0] && got != nil
		res.midDequeue = res.midDequeue || midDequeue
		midDequeue = false
		verdicts = append(verdicts, got != nil)
		if got != nil {
			res.deadlocked++
			checkWaitCycle(t, label+" reference", want, waits)
			checkWaitCycle(t, label, got, waits)
		}
	}
	draw := newDestDraw(topo.Nodes())
	next, at := 0, int64(0)
	if len(script) > 0 {
		at = int64(script[0] & 3)
	}
	for cycle := int64(0); cycle < 4000; cycle++ {
		for next < len(script) && at <= cycle {
			src := topology.NodeID(rng.Intn(topo.Nodes()))
			k := core.MulticastSet{Source: src, Dests: draw.dests(rng, src, 1+int(script[next]>>2)%(topo.Nodes()-1))}
			var p routing.Plan
			if lr, ok := r.(routing.LiveRouter); ok {
				p = lr.PlanLive(k, net)
			} else {
				p = r.PlanSet(k)
			}
			injectRoutes(net, p.Paths, p.Trees, length)
			if next++; next < len(script) {
				at += int64(script[next] & 3)
			}
		}
		if c.failAt > 0 && cycle == int64(c.failAt) {
			fifos := make([][]wormRef, len(net.chanSt))
			for id := range fifos {
				fifos[id] = net.waiters(int32(id))
			}
			net.FailWhere(func(ch dfr.Channel) bool { return ch.From == failNode })
			res.faulted = true
			clean := len(verdicts) > 0 && !verdicts[len(verdicts)-1]
			for _, q := range fifos {
				for i := 0; clean && i+1 < len(q); i++ {
					midDequeue = midDequeue || net.slots[q[i]].done && !net.slots[q[len(q)-1]].done
				}
			}
		}
		if period == 0 {
			check("before step")
		}
		net.Step()
		if err := net.CheckInvariants(); err != nil {
			t.Fatalf("%s %s cycle %d: %v", topo.Name(), name, net.Cycle(), err)
		}
		if period == 0 || net.Cycle()%period == 0 {
			check("after step")
		}
		if next == len(script) && net.Idle() {
			break // drained, or every worm left is parked on a cycle
		}
	}
	check("at the end")
	return res
}

// TestDetectDeadlockMatchesReference runs the fuzz seeds: the
// change-driven search must agree with the all-ahead reference at every
// check, and the seeds must reach real deadlocks, faults, a cycle found
// by the first two checks of a run and a fault that removes a worm from
// the middle of a FIFO between checks, or the agreement is vacuous.
func TestDetectDeadlockMatchesReference(t *testing.T) {
	var total ddStats
	for _, c := range ddSeeds {
		total.add(runDeadlockCase(t, c))
	}
	if total.deadlocked == 0 || !total.faulted || !total.foundAgain || !total.midDequeue {
		t.Fatalf("seeds made %d checks, %d deadlocked, faulted=%v, foundAgain=%v, midDequeue=%v: coverage is vacuous",
			total.checks, total.deadlocked, total.faulted, total.foundAgain, total.midDequeue)
	}
}

// FuzzDetectDeadlock is TestDetectDeadlockMatchesReference over
// fuzzer-chosen topologies, schemes, injection scripts, faults and check
// periods.
func FuzzDetectDeadlock(f *testing.F) {
	for _, c := range ddSeeds {
		f.Add(c.topo, c.size, c.scheme, c.seed, c.script, c.length, c.failAt, c.period)
	}
	f.Fuzz(func(t *testing.T, topo, size, scheme uint8, seed uint64, script []byte,
		length, failAt, period uint8) {
		runDeadlockCase(t, ddCase{topo, size, scheme, seed, script, length, failAt, period})
	})
}
