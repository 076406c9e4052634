package mcastsvc

import (
	"sync"
	"testing"

	"multicastnet/internal/topology"
)

// TestConcurrentRequests drives Multicast and SteinerEstimate from many
// goroutines against one Service. SteinerEstimate borrows heuristics
// workspaces from the shared sync.Pool, so under -race this doubles as
// the pool-safety check for the service path; results are compared
// against serially computed answers.
func TestConcurrentRequests(t *testing.T) {
	s := newMeshService(t, "dual-path")
	groups := make([]Group, 8)
	wantTraffic := make([]int, len(groups))
	wantEst := make([]int, len(groups))
	for i := range groups {
		members := []topology.NodeID{
			topology.NodeID(i), topology.NodeID(63 - i),
			topology.NodeID(8*i + 7), topology.NodeID(3*i + 20),
		}
		g, err := s.NewGroup(members)
		if err != nil {
			t.Fatal(err)
		}
		groups[i] = g
		c, err := s.Multicast(members[0], g, 64)
		if err != nil {
			t.Fatal(err)
		}
		wantTraffic[i] = c.TrafficChannels
		if wantEst[i], err = s.SteinerEstimate(members[0], g); err != nil {
			t.Fatal(err)
		}
		if wantEst[i] <= 0 || wantEst[i] > wantTraffic[i] {
			t.Fatalf("group %d: Steiner estimate %d vs path traffic %d", i, wantEst[i], wantTraffic[i])
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 32; rep++ {
				i := (w + rep) % len(groups)
				src := groups[i].Members()[0]
				c, err := s.Multicast(src, groups[i], 64)
				if err != nil {
					t.Errorf("worker %d: Multicast: %v", w, err)
					return
				}
				if c.TrafficChannels != wantTraffic[i] {
					t.Errorf("worker %d group %d: traffic %d, want %d", w, i, c.TrafficChannels, wantTraffic[i])
					return
				}
				est, err := s.SteinerEstimate(src, groups[i])
				if err != nil {
					t.Errorf("worker %d: SteinerEstimate: %v", w, err)
					return
				}
				if est != wantEst[i] {
					t.Errorf("worker %d group %d: estimate %d, want %d", w, i, est, wantEst[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
