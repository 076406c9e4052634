package dfr

import (
	"math/rand"
	"testing"

	"multicastnet/internal/topology"
)

// chanOp is one decoded step of a channel stream: intern a channel, or
// look one up, after growing the index's headers when grow > 0.
type chanOp struct {
	intern bool
	grow   int
	c      Channel
}

// aliasShift makes 1<<aliasShift a run-time 2^32: added to a field it
// leaves the field's low 32 bits, so the sum aliases the field in int32
// (on 32-bit platforms the shift yields 0 and there is no alias to test).
var aliasShift uint = 32

// decodeChanOps turns raw bytes into a channel stream, four bytes a step.
// Interned channels come from ten nodes, twelve heads and four classes, so
// links carry several classes, repeats are frequent, and a node's block
// regrows up to six times, freeing blocks that other nodes then reuse.
// Lookups add the misses: negative and out-of-range sources, and heads or
// classes that alias a small value once truncated to int32. Some steps
// first grow the headers, past the sources interned or not.
func decodeChanOps(raw []byte) []chanOp {
	var ops []chanOp
	for ; len(raw) >= 4; raw = raw[4:] {
		flags := raw[0]
		op := chanOp{intern: flags%4 < 2}
		if op.intern {
			op.c.From = topology.NodeID(raw[1] % 10)
		} else {
			op.c.From = topology.NodeID(int(raw[1]%14) - 2)
		}
		op.c.To = topology.NodeID(int(raw[2]%12) - 1)
		op.c.Class = int(raw[3] % 4)
		if flags&0x40 != 0 {
			op.grow = int(raw[1] % 16)
		}
		if !op.intern && flags&0x10 != 0 {
			op.c.To += 1 << aliasShift
		}
		if !op.intern && flags&0x20 != 0 {
			op.c.Class += 1 << aliasShift
		}
		ops = append(ops, op)
	}
	return ops
}

// checkChanIndex drives ops through a ChanIndex and a map-based reference
// interner and fails on the first disagreement: ids, lookup hits and
// misses, and the enumeration of every id exactly once with its channel.
func checkChanIndex(t *testing.T, ops []chanOp) {
	t.Helper()
	var x ChanIndex
	ref := make(map[Channel]int32)
	var byID []Channel
	for i, op := range ops {
		if op.grow > 0 {
			x.Grow(op.grow)
		}
		want, ok := ref[op.c]
		if op.intern {
			if !ok {
				want = int32(len(byID))
				ref[op.c] = want
				byID = append(byID, op.c)
			}
			if got := x.Intern(op.c); got != want {
				t.Fatalf("step %d: Intern(%v) = %d, reference %d", i, op.c, got, want)
			}
		} else if got, hit := x.Lookup(op.c); hit != ok || (ok && got != want) {
			t.Fatalf("step %d: Lookup(%v) = %d,%v, reference %d,%v", i, op.c, got, hit, want, ok)
		}
	}
	seen := make([]bool, len(byID))
	x.Each(func(id int32, c Channel) {
		if id < 0 || int(id) >= len(byID) {
			t.Fatalf("Each: id %d outside [0,%d)", id, len(byID))
		}
		if seen[id] {
			t.Fatalf("Each: id %d visited twice", id)
		}
		seen[id] = true
		if c != byID[id] {
			t.Fatalf("Each: id %d is %v, reference %v", id, c, byID[id])
		}
	})
	for id, ok := range seen {
		if !ok {
			t.Fatalf("Each: id %d (%v) never visited", id, byID[id])
		}
	}
}

// TestChanIndexMatchesMap checks ChanIndex against a map[Channel]int32
// interner on seeded random streams and on one hand-built stream in
// which every link of a node carries four classes in scrambled order,
// so that node's block moves four times.
func TestChanIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 16, 256, 4096} {
		raw := make([]byte, 4*n)
		rng.Read(raw)
		checkChanIndex(t, decodeChanOps(raw))
	}
	var ops []chanOp
	for _, class := range []int{3, 0, 2, 1} {
		for _, to := range []topology.NodeID{4, 1, 3} {
			c := Channel{From: 2, To: to, Class: class}
			ops = append(ops, chanOp{intern: true, c: c}, chanOp{c: c}, chanOp{intern: true, c: c})
			ops = append(ops, chanOp{c: Channel{From: 2, To: to, Class: class + 4}})
			ops = append(ops, chanOp{c: Channel{From: 3, To: to, Class: class}})
		}
	}
	checkChanIndex(t, ops)
}

// TestChanIndexRejectsNegativeFrom pins Intern's refusal of a negative
// source, which the streams above only ever look up.
func TestChanIndexRejectsNegativeFrom(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intern accepted a channel with a negative source")
		}
	}()
	var x ChanIndex
	x.Intern(Channel{From: -1, To: 0})
}

// FuzzChanIndex is TestChanIndexMatchesMap over fuzzer-chosen streams.
func FuzzChanIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 3, 1, 0, 2, 3, 2, 2, 2, 3, 1, 0x12, 2, 3, 1, 0x22, 2, 3, 2})
	f.Add([]byte{1, 9, 11, 3, 3, 255, 0, 0, 0, 0, 0, 0, 3, 12, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkChanIndex(t, decodeChanOps(raw))
	})
}

// BenchmarkChanIndex times Lookup against a map[Channel]int32 on every
// channel of a topology, interned in a shuffled first-use order and then
// looked up in another shuffled order. A lookup's cost grows with the
// channels that leave its source node — degree x classes — so the cases
// run from the 64x64 mesh (4 x 2) to the 65536-node 16-cube (16 x 1,
// about a million channels).
func BenchmarkChanIndex(b *testing.B) {
	for _, tc := range []struct {
		name    string
		topo    topology.Topology
		classes int
	}{
		{"mesh64x64", topology.NewMesh2D(64, 64), 2},
		{"cube8ary4", topology.NewKAryNCube(8, 4), 2},
		{"hypercube16", topology.NewHypercube(16), 1},
	} {
		var chans []Channel
		var buf []topology.NodeID
		for v := 0; v < tc.topo.Nodes(); v++ {
			buf = tc.topo.Neighbors(topology.NodeID(v), buf[:0])
			for _, u := range buf {
				for class := 0; class < tc.classes; class++ {
					chans = append(chans, Channel{From: topology.NodeID(v), To: u, Class: class})
				}
			}
		}
		rng := rand.New(rand.NewSource(1))
		rng.Shuffle(len(chans), func(i, j int) { chans[i], chans[j] = chans[j], chans[i] })
		var x ChanIndex
		ref := make(map[Channel]int32, len(chans))
		for i, c := range chans {
			x.Intern(c)
			ref[c] = int32(i)
		}
		rng.Shuffle(len(chans), func(i, j int) { chans[i], chans[j] = chans[j], chans[i] })
		b.Run(tc.name+"/index", func(b *testing.B) {
			var sum int32
			for i := 0; i < b.N; i++ {
				id, _ := x.Lookup(chans[i%len(chans)])
				sum += id
			}
			sinkID = sum
		})
		b.Run(tc.name+"/map", func(b *testing.B) {
			var sum int32
			for i := 0; i < b.N; i++ {
				sum += ref[chans[i%len(chans)]]
			}
			sinkID = sum
		})
	}
}

// sinkID keeps the benchmark loops' lookups live.
var sinkID int32
