// Package workload generates deterministic multicast request streams for
// the simulator (internal/wormsim) and the scheduling service
// (internal/sched). The paper's Chapter-7 setup drives every figure with
// uniform-random destination sets at fixed Poisson rates; production
// fabrics are skewed, bursty, and spatially structured. This package
// supplies composable models of that traffic:
//
//   - destination models: a uniform group pool, a Zipf-popularity group
//     pool (a few hot groups receive most traffic — the
//     millions-of-users profile), hotspot destinations (a fraction of
//     every destination set lands in a small fixed region), transpose
//     destinations (sets clustered around each source's transpose
//     partner), and collective rounds (barrier/allreduce: a convergecast
//     of unicasts into a coordinator followed by a release multicast);
//   - arrival models: an open-loop Poisson process (the paper's fixed
//     rate) and a bursty two-state ON/OFF Markov process with
//     geometric burst sizes.
//
// Every stream is a pure function of (topology, Spec, seeds): the same
// inputs yield byte-identical request sequences on every platform and at
// every consumer concurrency level. Streams can be recorded into a
// versioned trace file and replayed byte-identically (trace.go).
package workload

import (
	"fmt"
	"math"

	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// Request is one multicast request of a stream: at cycle At, node Src
// sends to Dests. Destination sets are valid by construction (non-empty,
// distinct, in range, never containing Src). The Dests slice may be
// shared with the generator's internal pool; callers must not mutate it.
type Request struct {
	At    int64
	Src   topology.NodeID
	Dests []topology.NodeID
}

// Source yields a time-ordered (nondecreasing At) request stream.
// Sources are not safe for concurrent use; each consumer owns its own.
type Source interface {
	// Next returns the next request, or ok == false when the stream is
	// exhausted.
	Next() (r Request, ok bool)
}

// Destination-model names.
const (
	ModelUniform    = "uniform"    // uniform group pool, uniform popularity
	ModelZipf       = "zipf"       // same pool, Zipf(s) popularity by rank
	ModelHotspot    = "hotspot"    // destinations concentrated in a fixed region
	ModelTranspose  = "transpose"  // destinations clustered at the transpose partner
	ModelCollective = "collective" // barrier/allreduce rounds over pinned groups
)

// Arrival-process names.
const (
	ArrivalsPoisson = "poisson" // open-loop exponential gaps (the paper's model)
	ArrivalsOnOff   = "onoff"   // two-state Markov: geometric bursts, idle gaps
)

// Models returns the destination-model names, in canonical order.
func Models() []string {
	return []string{ModelUniform, ModelZipf, ModelHotspot, ModelTranspose, ModelCollective}
}

// Arrivals returns the arrival-process names, in canonical order.
func Arrivals() []string { return []string{ArrivalsPoisson, ArrivalsOnOff} }

// Spec declares a workload. The zero value of every optional field
// selects a documented default (see normalize); Model and Requests are
// required. Specs are fully serializable into trace headers, so a
// recorded stream carries its own provenance.
type Spec struct {
	Model    string // destination model, one of Models()
	Arrivals string // arrival process, one of Arrivals(); "" = poisson
	Requests int    // stream length in requests

	// Groups is the pinned pool size of the uniform/zipf models and the
	// process-group count of the collective model (default 256).
	Groups int
	// GroupSize is the collective model's process-group size, release
	// multicast included (default 2*AvgDests).
	GroupSize int
	// AvgDests is the mean destination count: sets draw a uniform count
	// in [1, 2*AvgDests-1] (default 4). Collective rounds instead use
	// GroupSize.
	AvgDests int
	// ZipfS is the zipf model's exponent: group rank r is chosen with
	// probability proportional to r^-s (default 1.2).
	ZipfS float64
	// HotFrac is the hotspot model's per-destination probability of
	// drawing from the hot region (default 0.8).
	HotFrac float64
	// HotNodes is the hot region size: nodes [0, HotNodes) (default
	// Nodes/16, minimum 2).
	HotNodes int

	// MeanGap is the mean inter-arrival gap in cycles of the poisson
	// process (default 4). The onoff process derives its defaults from
	// it so both offer the same average load.
	MeanGap float64
	// BurstMean is the onoff process's mean burst size in requests,
	// geometrically distributed (default 16).
	BurstMean float64
	// BurstGap is the onoff in-burst mean inter-arrival gap in cycles
	// (default MeanGap/4).
	BurstGap float64
	// IdleGap is the onoff mean OFF-period length in cycles (default
	// sized so the average rate matches the poisson process at MeanGap:
	// BurstMean*(MeanGap-BurstGap)).
	IdleGap float64

	// PhaseGap is the collective model's cycle offset between a round's
	// gather unicasts and its release multicast (default 64).
	PhaseGap int64
}

// normalize fills defaults and validates against the topology. It
// returns the canonical spec a Stream reports (and a trace records).
func (sp Spec) normalize(t topology.Topology) (Spec, error) {
	switch sp.Model {
	case ModelUniform, ModelZipf, ModelHotspot, ModelTranspose, ModelCollective:
	default:
		return sp, fmt.Errorf("workload: unknown model %q", sp.Model)
	}
	if sp.Arrivals == "" {
		sp.Arrivals = ArrivalsPoisson
	}
	switch sp.Arrivals {
	case ArrivalsPoisson, ArrivalsOnOff:
	default:
		return sp, fmt.Errorf("workload: unknown arrival process %q", sp.Arrivals)
	}
	if sp.Requests <= 0 {
		return sp, fmt.Errorf("workload: Requests must be positive, got %d", sp.Requests)
	}
	n := t.Nodes()
	if n < 2 {
		return sp, fmt.Errorf("workload: topology %s has fewer than 2 nodes", t.Name())
	}
	if sp.Groups == 0 {
		sp.Groups = 256
	}
	if sp.Groups < 1 {
		return sp, fmt.Errorf("workload: Groups must be positive, got %d", sp.Groups)
	}
	if sp.AvgDests == 0 {
		sp.AvgDests = 4
	}
	if sp.AvgDests < 1 {
		return sp, fmt.Errorf("workload: AvgDests must be positive, got %d", sp.AvgDests)
	}
	if sp.GroupSize == 0 {
		sp.GroupSize = 2 * sp.AvgDests
	}
	if sp.GroupSize < 2 {
		return sp, fmt.Errorf("workload: GroupSize must be at least 2, got %d", sp.GroupSize)
	}
	if sp.GroupSize > n {
		sp.GroupSize = n
	}
	if sp.ZipfS == 0 {
		sp.ZipfS = 1.2
	}
	if sp.ZipfS < 0 {
		return sp, fmt.Errorf("workload: ZipfS must be non-negative, got %g", sp.ZipfS)
	}
	if sp.HotFrac == 0 {
		sp.HotFrac = 0.8
	}
	if sp.HotFrac < 0 || sp.HotFrac > 1 {
		return sp, fmt.Errorf("workload: HotFrac must be in [0,1], got %g", sp.HotFrac)
	}
	if sp.HotNodes == 0 {
		sp.HotNodes = n / 16
		if sp.HotNodes < 2 {
			sp.HotNodes = 2
		}
	}
	if sp.HotNodes < 2 || sp.HotNodes > n {
		return sp, fmt.Errorf("workload: HotNodes must be in [2,%d], got %d", n, sp.HotNodes)
	}
	if sp.MeanGap == 0 {
		sp.MeanGap = 4
	}
	if sp.MeanGap < 0 {
		return sp, fmt.Errorf("workload: MeanGap must be positive, got %g", sp.MeanGap)
	}
	if sp.BurstMean == 0 {
		sp.BurstMean = 16
	}
	if sp.BurstMean < 1 {
		return sp, fmt.Errorf("workload: BurstMean must be at least 1, got %g", sp.BurstMean)
	}
	if sp.BurstGap == 0 {
		sp.BurstGap = sp.MeanGap / 4
	}
	if sp.BurstGap < 0 {
		return sp, fmt.Errorf("workload: BurstGap must be positive, got %g", sp.BurstGap)
	}
	if sp.IdleGap == 0 {
		// Load-match the poisson process: one burst of BurstMean requests
		// spans BurstMean*BurstGap + IdleGap cycles, so the average gap
		// equals MeanGap.
		sp.IdleGap = sp.BurstMean * (sp.MeanGap - sp.BurstGap)
		if sp.IdleGap <= 0 {
			sp.IdleGap = sp.MeanGap
		}
	}
	if sp.IdleGap < 0 {
		return sp, fmt.Errorf("workload: IdleGap must be positive, got %g", sp.IdleGap)
	}
	if sp.PhaseGap == 0 {
		sp.PhaseGap = 64
	}
	if sp.PhaseGap < 0 {
		return sp, fmt.Errorf("workload: PhaseGap must be non-negative, got %d", sp.PhaseGap)
	}
	return sp, nil
}

// Stream is a live generator: a deterministic Source over (topology,
// Spec, pool seed, stream seed). The group pool (when the model has one)
// is drawn from the pool seed and the arrivals from the stream seed, so
// two streams sharing a pool seed share their pool.
type Stream struct {
	topo topology.Topology
	spec Spec
	rng  *stats.Rand

	clock     float64
	burstLeft int // onoff: arrivals remaining in the current burst
	emitted   int

	// Pinned pools. uniform/zipf: srcs[g] multicasts to dests[g].
	// collective: groups[g] is a process group, coordinator first.
	srcs   []topology.NodeID
	dests  [][]topology.NodeID
	groups [][]topology.NodeID
	cum    []float64 // zipf cumulative rank weights

	stage []Request // collective: generated, not yet emitted (sorted by At)
}

// New builds a stream over t whose pool and stream seeds are derived
// from seed with labels "workload/pool" and "workload/stream". The spec
// is normalized (defaults filled) and validated; the normalized form is
// available via Spec().
func New(t topology.Topology, spec Spec, seed uint64) (*Stream, error) {
	return NewSeeded(t, spec, stats.DeriveSeed(seed, "workload/pool"),
		stats.DeriveSeed(seed, "workload/stream"))
}

// NewSeeded builds a stream over t with its group pool drawn from
// poolSeed and its arrivals and per-request draws from streamSeed, so a
// sweep can hold one pool fixed while every point draws its own
// arrivals.
func NewSeeded(t topology.Topology, spec Spec, poolSeed, streamSeed uint64) (*Stream, error) {
	sp, err := spec.normalize(t)
	if err != nil {
		return nil, err
	}
	s := &Stream{
		topo: t,
		spec: sp,
		rng:  stats.NewRand(streamSeed),
	}
	poolRng := stats.NewRand(poolSeed)
	switch sp.Model {
	case ModelUniform, ModelZipf:
		s.srcs = make([]topology.NodeID, sp.Groups)
		s.dests = make([][]topology.NodeID, sp.Groups)
		for g := range s.srcs {
			src := topology.NodeID(poolRng.Intn(t.Nodes()))
			k := drawK(poolRng, sp.AvgDests, t.Nodes()-1)
			s.srcs[g] = src
			s.dests[g] = sampleNodes(poolRng, t.Nodes(), k, src)
		}
		if sp.Model == ModelZipf {
			s.cum = make([]float64, sp.Groups)
			total := 0.0
			for r := 0; r < sp.Groups; r++ {
				total += math.Pow(float64(r+1), -sp.ZipfS)
				s.cum[r] = total
			}
		}
	case ModelCollective:
		s.groups = make([][]topology.NodeID, sp.Groups)
		for g := range s.groups {
			raw := poolRng.Sample(t.Nodes(), sp.GroupSize)
			members := make([]topology.NodeID, len(raw))
			for i, v := range raw {
				members[i] = topology.NodeID(v)
			}
			s.groups[g] = members
		}
	}
	return s, nil
}

// Spec returns the normalized spec the stream runs.
func (s *Stream) Spec() Spec { return s.spec }

// Topology returns the stream's topology.
func (s *Stream) Topology() topology.Topology { return s.topo }

// Next implements Source.
func (s *Stream) Next() (Request, bool) {
	if s.emitted >= s.spec.Requests {
		return Request{}, false
	}
	if s.spec.Model == ModelCollective {
		return s.nextCollective()
	}
	at := s.arrive()
	s.emitted++
	switch s.spec.Model {
	case ModelUniform:
		g := s.rng.Intn(s.spec.Groups)
		return Request{At: at, Src: s.srcs[g], Dests: s.dests[g]}, true
	case ModelZipf:
		g := s.zipfGroup()
		return Request{At: at, Src: s.srcs[g], Dests: s.dests[g]}, true
	case ModelHotspot:
		return s.hotspotRequest(at), true
	case ModelTranspose:
		return s.transposeRequest(at), true
	}
	panic("workload: unreachable model " + s.spec.Model)
}

// arrive advances the arrival clock by one event and returns its cycle.
func (s *Stream) arrive() int64 {
	switch s.spec.Arrivals {
	case ArrivalsPoisson:
		s.clock += s.rng.ExpFloat64(s.spec.MeanGap)
	case ArrivalsOnOff:
		if s.burstLeft == 0 {
			// OFF period, then a new geometric burst.
			s.clock += s.rng.ExpFloat64(s.spec.IdleGap)
			s.burstLeft = geometric(s.rng, s.spec.BurstMean)
		} else {
			s.clock += s.rng.ExpFloat64(s.spec.BurstGap)
		}
		s.burstLeft--
	}
	return int64(s.clock)
}

// geometric draws a geometric burst size B >= 1 with the given mean:
// P(B = b) = p(1-p)^(b-1), p = 1/mean.
func geometric(rng *stats.Rand, mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return 1 + int(math.Log(u)/math.Log(1-p))
}

// zipfGroup draws a group index with P(rank r) proportional to r^-s by
// inverse-CDF binary search over the precomputed cumulative weights.
func (s *Stream) zipfGroup() int {
	u := s.rng.Float64() * s.cum[len(s.cum)-1]
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// hotspotRequest draws a set whose destinations each land in the hot
// region [0, HotNodes) with probability HotFrac, uniformly elsewhere
// otherwise.
func (s *Stream) hotspotRequest(at int64) Request {
	n := s.topo.Nodes()
	src := topology.NodeID(s.rng.Intn(n))
	maxK := n - 1
	if s.spec.HotFrac >= 1 && s.spec.HotNodes-1 < maxK {
		// Every destination is a hot node; at most HotNodes-1 are
		// distinct and distinct from a hot source.
		maxK = s.spec.HotNodes - 1
	}
	k := drawK(s.rng, s.spec.AvgDests, maxK)
	dests := make([]topology.NodeID, 0, k)
	for len(dests) < k {
		var d topology.NodeID
		if s.rng.Float64() < s.spec.HotFrac {
			d = topology.NodeID(s.rng.Intn(s.spec.HotNodes))
		} else {
			d = topology.NodeID(s.rng.Intn(n))
		}
		if d == src || containsNode(dests, d) {
			continue
		}
		dests = append(dests, d)
	}
	return Request{At: at, Src: src, Dests: dests}
}

// transposeRequest draws a set clustered around the source's transpose
// partner: the partner plus its nearest neighbors in deterministic BFS
// order — the structured counterpart of the uniform model.
func (s *Stream) transposeRequest(at int64) Request {
	n := s.topo.Nodes()
	src := topology.NodeID(s.rng.Intn(n))
	k := drawK(s.rng, s.spec.AvgDests, n-1)
	center := TransposePartner(s.topo, src)
	return Request{At: at, Src: src, Dests: nearestSet(s.topo, center, src, k)}
}

// nextCollective emits the staged requests of collective rounds in
// global At order. A round at cycle T is GroupSize-1 gather unicasts
// (member -> coordinator) at T plus one release multicast
// (coordinator -> members) at T+PhaseGap; rounds are staged until no
// earlier round can still be generated, then popped front-first.
func (s *Stream) nextCollective() (Request, bool) {
	// Generate rounds while the next round could precede the staged head.
	for s.generated() < s.spec.Requests &&
		(len(s.stage) == 0 || int64(s.clock) <= s.stage[0].At) {
		at := s.arrive()
		g := s.rng.Intn(s.spec.Groups)
		members := s.groups[g]
		coord := members[0]
		for _, m := range members[1:] {
			s.push(Request{At: at, Src: m, Dests: []topology.NodeID{coord}})
		}
		release := make([]topology.NodeID, len(members)-1)
		copy(release, members[1:])
		s.push(Request{At: at + s.spec.PhaseGap, Src: coord, Dests: release})
	}
	if len(s.stage) == 0 {
		return Request{}, false
	}
	r := s.stage[0]
	copy(s.stage, s.stage[1:])
	s.stage = s.stage[:len(s.stage)-1]
	s.emitted++
	return r, true
}

// generated counts requests already produced by rounds, emitted or
// staged — the budget the round generator charges against.
func (s *Stream) generated() int { return s.emitted + len(s.stage) }

// push inserts r into the stage keeping it sorted by At, stable: equal
// cycles preserve generation order (gathers before their release).
func (s *Stream) push(r Request) {
	s.stage = append(s.stage, r)
	for i := len(s.stage) - 1; i > 0 && s.stage[i].At < s.stage[i-1].At; i-- {
		s.stage[i], s.stage[i-1] = s.stage[i-1], s.stage[i]
	}
}

// TransposePartner returns the spatial transpose of v: (x,y) -> (y,x)
// on a 2D mesh (coordinates clamped for non-square meshes), the
// bit-reversed address on a hypercube, and the complement address
// N-1-v on other topologies.
func TransposePartner(t topology.Topology, v topology.NodeID) topology.NodeID {
	switch tt := t.(type) {
	case *topology.Mesh2D:
		x, y := tt.XY(v)
		px, py := y, x
		if px > tt.Width-1 {
			px = tt.Width - 1
		}
		if py > tt.Height-1 {
			py = tt.Height - 1
		}
		return tt.ID(px, py)
	case *topology.Hypercube:
		var r topology.NodeID
		for b := 0; b < tt.Dim; b++ {
			if v&(1<<b) != 0 {
				r |= 1 << (tt.Dim - 1 - b)
			}
		}
		return r
	default:
		return topology.NodeID(t.Nodes()-1) - v
	}
}

// nearestSet returns the k nodes nearest to center (center first) in
// deterministic BFS order, excluding excl.
func nearestSet(t topology.Topology, center, excl topology.NodeID, k int) []topology.NodeID {
	out := make([]topology.NodeID, 0, k)
	visited := map[topology.NodeID]bool{center: true}
	frontier := []topology.NodeID{center}
	if center != excl {
		out = append(out, center)
	}
	var buf []topology.NodeID
	for len(out) < k && len(frontier) > 0 {
		var next []topology.NodeID
		for _, v := range frontier {
			buf = t.Neighbors(v, buf[:0])
			for _, w := range buf {
				if visited[w] {
					continue
				}
				visited[w] = true
				next = append(next, w)
				if w != excl {
					out = append(out, w)
					if len(out) == k {
						return out
					}
				}
			}
		}
		frontier = next
	}
	return out
}

// drawK draws a destination count uniform in [1, min(2*avg-1, maxK)].
func drawK(rng *stats.Rand, avg, maxK int) int {
	m := 2*avg - 1
	if m > maxK {
		m = maxK
	}
	if m <= 1 {
		return 1
	}
	return 1 + rng.Intn(m)
}

// sampleNodes draws k distinct uniform nodes excluding excl.
func sampleNodes(rng *stats.Rand, n, k int, excl topology.NodeID) []topology.NodeID {
	raw := rng.Sample(n, k, int(excl))
	out := make([]topology.NodeID, k)
	for i, v := range raw {
		out[i] = topology.NodeID(v)
	}
	return out
}

func containsNode(s []topology.NodeID, v topology.NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
