package wormsim

import (
	"testing"

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
		if o := n.chanOwner[id]; live(o) && o != wi {
			waits[u] = append(waits[u], n.slots[o].id)
		}
		for _, q := range n.chanWaiters(id) {
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
		switch {
		case w.kind == pathWorm && w.headIdx < len(w.chans):
			need(wi, w.chans[w.headIdx])
		case w.kind == treeWorm && w.headIdx < len(w.levels):
			l := &w.levels[w.headIdx]
			for i, id := range l.channels {
				if !l.taken[i] {
					need(wi, id)
				}
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

// ddSchemes are the registry schemes the deadlock fuzz draws from: the
// deadlock-prone naive tree, the double-channel tree, double-channel
// paths, and the single-channel path schemes (adaptive ones route
// around live congestion at injection).
var ddSchemes = []string{
	"naive-tree", "tree", "dual-path-double", "multi-path-double",
	"dual-path", "multi-path", "fixed-path", "adaptive-dual-path", "virtual-channel",
}

// ddCase is one fuzzed simulation: a small mesh (even topo) or hypercube
// (odd topo) sized by size, the first scheme at or after ddSchemes[scheme]
// that builds on it, one random multicast per script byte (low two bits:
// the gap in cycles after the previous one; the rest: the average
// destination count), messages of 1+length%12 flits, the outgoing
// channels of one node failed at cycle failAt when it is non-zero.
type ddCase struct {
	topo, size, scheme uint8
	seed               uint64
	script             []byte
	length, failAt     uint8
}

// ddSeeds are the fuzz seeds; TestDetectDeadlockMatchesReference runs
// them as a fixed regression suite. The last two close a cycle through a
// worm that has advanced but is not yet queued on its next channel.
var ddSeeds = []ddCase{
	{topo: 0, size: 10, scheme: 0, seed: 1, script: []byte{20, 24, 28, 32, 20, 24, 28, 32, 36, 40, 44, 48}, length: 8},
	{topo: 0, size: 15, scheme: 0, seed: 7, script: []byte{60, 61, 62, 63, 60, 61, 62, 63, 60, 61}, length: 11},
	{topo: 0, size: 5, scheme: 0, seed: 3, script: []byte{12, 16, 20, 24, 28, 12, 16, 20}, length: 6, failAt: 9},
	{topo: 0, size: 10, scheme: 1, seed: 11, script: []byte{40, 41, 42, 43, 44, 45, 46, 47, 48, 49}, length: 9, failAt: 14},
	{topo: 0, size: 6, scheme: 2, seed: 5, script: []byte{8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, length: 7},
	{topo: 0, size: 9, scheme: 3, seed: 13, script: []byte{24, 25, 26, 27, 24, 25, 26, 27}, length: 5, failAt: 6},
	{topo: 1, size: 2, scheme: 4, seed: 17, script: []byte{32, 0, 1, 2, 3, 32, 33, 34}, length: 10},
	{topo: 1, size: 3, scheme: 5, seed: 19, script: []byte{16, 17, 18, 19, 20, 21, 22, 23}, length: 4, failAt: 5},
	{topo: 0, size: 12, scheme: 7, seed: 23, script: []byte{12, 13, 14, 15, 16, 17, 18, 19}, length: 12},
	{topo: 1, size: 1, scheme: 8, seed: 29, script: []byte{28, 29, 30, 31, 28, 29}, length: 3, failAt: 3},
	{topo: 0, size: 0, scheme: 0, seed: 112, script: []byte{0xb2, 0xd2, 0xd8, 0x60, 0x36, 0x2e, 0x5d, 0x8e,
		0x1e, 0xca, 0x9e, 0xb2, 0x62, 0x1f, 0xc3}, length: 11, failAt: 7},
	{topo: 0, size: 1, scheme: 0, seed: 187, script: []byte{0x0d, 0x5e, 0x80, 0x5f, 0x3a, 0xa9, 0x43, 0x10,
		0xfb, 0x73, 0x72, 0x85, 0xe4, 0xde, 0x22, 0xdc, 0x46, 0x86, 0x29, 0x55, 0x70}, length: 8},
}

// ddStats counts the checks one case made and how many found a cycle.
type ddStats struct {
	checks, deadlocked int
	faulted            bool
}

// runDeadlockCase simulates c and, after every injection burst and every
// Step, requires that DetectDeadlock finds a cycle exactly when the
// reference does, that any cycle it returns is one of the reference
// relation, and that the full invariants — queue membership among
// them — hold.
func runDeadlockCase(t *testing.T, c ddCase) ddStats {
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
	check := func(label string) {
		t.Helper()
		got := net.DetectDeadlock()
		want, waits := detectDeadlockRef(net)
		res.checks++
		if (got == nil) != (want == nil) {
			t.Fatalf("%s %s cycle %d %s: DetectDeadlock = %v, reference = %v",
				topo.Name(), name, net.Cycle(), label, got, want)
		}
		if got != nil {
			res.deadlocked++
			checkWaitCycle(t, label+" reference", want, waits)
			checkWaitCycle(t, label, got, waits)
		}
	}
	next, at := 0, int64(0)
	if len(script) > 0 {
		at = int64(script[0] & 3)
	}
	for cycle := int64(0); cycle < 4000; cycle++ {
		for next < len(script) && at <= cycle {
			src := topology.NodeID(rng.Intn(topo.Nodes()))
			k := randomMulticast(topo, rng, src, 1+int(script[next]>>2)%(topo.Nodes()-1))
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
			net.FailWhere(func(ch dfr.Channel) bool { return ch.From == failNode })
			res.faulted = true
		}
		check("before step")
		net.Step()
		if err := net.CheckInvariants(); err != nil {
			t.Fatalf("%s %s cycle %d: %v", topo.Name(), name, net.Cycle(), err)
		}
		check("after step")
		if next == len(script) && net.Idle() {
			break // drained, or every worm left is parked on a cycle
		}
	}
	return res
}

// TestDetectDeadlockMatchesReference runs the fuzz seeds: the
// one-edge-per-FIFO-position graph must agree with the all-ahead
// reference at every check, and the seeds must reach real deadlocks and
// faults, or the agreement is vacuous.
func TestDetectDeadlockMatchesReference(t *testing.T) {
	var total ddStats
	for _, c := range ddSeeds {
		s := runDeadlockCase(t, c)
		total.checks += s.checks
		total.deadlocked += s.deadlocked
		total.faulted = total.faulted || s.faulted
	}
	if total.deadlocked == 0 || !total.faulted {
		t.Fatalf("seeds made %d checks, %d deadlocked, faulted=%v: coverage is vacuous",
			total.checks, total.deadlocked, total.faulted)
	}
}

// FuzzDetectDeadlock is TestDetectDeadlockMatchesReference over
// fuzzer-chosen topologies, schemes, injection scripts and faults.
func FuzzDetectDeadlock(f *testing.F) {
	for _, c := range ddSeeds {
		f.Add(c.topo, c.size, c.scheme, c.seed, c.script, c.length, c.failAt)
	}
	f.Fuzz(func(t *testing.T, topo, size, scheme uint8, seed uint64, script []byte,
		length, failAt uint8) {
		runDeadlockCase(t, ddCase{topo, size, scheme, seed, script, length, failAt})
	})
}
