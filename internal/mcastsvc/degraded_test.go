package mcastsvc

import (
	"testing"

	"multicastnet/internal/fault"
	"multicastnet/internal/topology"
)

func degradedService(t *testing.T, m topology.Topology) *Service {
	t.Helper()
	svc, err := New(Config{Topology: m, SchemeName: "dual-path"})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestMulticastUnderFaultsHealthy checks the zero-fault case: one
// attempt, everything delivered, no degraded-mode accounting.
func TestMulticastUnderFaultsHealthy(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	svc := degradedService(t, m)
	g, err := svc.NewGroup([]topology.NodeID{0, 3, 12, 15})
	if err != nil {
		t.Fatal(err)
	}
	out, err := svc.MulticastUnderFaults(0, g, 64, nil, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Attempts != 1 || out.Delivered != 3 || out.Lost != 0 || out.Unreachable != 0 {
		t.Fatalf("healthy outcome = %+v", out)
	}
	if out.Degraded() {
		t.Fatalf("healthy run reports degraded treatment: %+v", out)
	}
	if out.DeliveryRatio() != 1 {
		t.Fatalf("delivery ratio = %v", out.DeliveryRatio())
	}
	if out.CompletionMicros <= 0 {
		t.Fatalf("no completion time recorded")
	}
}

// TestMulticastUnderFaultsRoutesAround checks a static link fault on the
// natural route: everything is still delivered because degraded routing
// masks the dead link before the first attempt.
func TestMulticastUnderFaultsRoutesAround(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	svc := degradedService(t, m)
	g, err := svc.NewGroup([]topology.NodeID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	fp := fault.NewStaticPlan([]fault.Event{
		{Kind: fault.LinkFault, A: 1, B: 2},
	})
	out, err := svc.MulticastUnderFaults(0, g, 64, fp, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Delivered != 3 || out.Lost != 0 || out.Unreachable != 0 {
		t.Fatalf("outcome = %+v, want full delivery around the fault", out)
	}
	if out.Attempts != 1 {
		t.Fatalf("static fault needed %d attempts", out.Attempts)
	}
}

// TestMulticastUnderFaultsIsolatesOperations: one operation's degraded
// plan must never serve another. A fault-free run after a run that
// detoured around a dead link returns exactly what the same fault-free
// run returns on a fresh service.
func TestMulticastUnderFaultsIsolatesOperations(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	dead := fault.NewStaticPlan([]fault.Event{{Kind: fault.LinkFault, A: 1, B: 2}})
	for _, scheme := range []string{"dual-path", "multi-path", "tree"} {
		run := func(svc *Service, fp *fault.Plan) DegradedOutcome {
			t.Helper()
			g, err := svc.NewGroup([]topology.NodeID{0, 1, 2, 3})
			if err != nil {
				t.Fatal(err)
			}
			out, err := svc.MulticastUnderFaults(0, g, 0, fp, RetryPolicy{})
			if err != nil {
				t.Fatalf("%s: %v", scheme, err)
			}
			return out
		}
		newService := func() *Service {
			svc, err := New(Config{Topology: m, SchemeName: scheme})
			if err != nil {
				t.Fatal(err)
			}
			return svc
		}
		svc := newService()
		if out := run(svc, dead); !out.FellBack && !out.Repaired {
			t.Fatalf("%s: the dead link did not degrade the first operation: %+v", scheme, out)
		}
		got := run(svc, nil)
		if want := run(newService(), nil); got != want {
			t.Fatalf("%s: fault-free run after a degraded one = %+v, on a fresh service %+v",
				scheme, got, want)
		}
	}
}

// TestMulticastUnderFaultsMidRunRetry activates a fault mid-flight so
// the first attempt loses worms, then verifies the retry (re-routed over
// the updated mask) completes the delivery.
func TestMulticastUnderFaultsMidRunRetry(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	svc := degradedService(t, m)
	var members []topology.NodeID
	for v := topology.NodeID(0); v < 64; v += 7 {
		members = append(members, v)
	}
	g, err := svc.NewGroup(members)
	if err != nil {
		t.Fatal(err)
	}
	// Activation at cycle 20: mid-worm for a 64-flit message crossing an
	// 8x8 mesh. Cut links near the source so in-flight worms die.
	fp := fault.NewStaticPlan([]fault.Event{
		{Kind: fault.LinkFault, Cycle: 20, A: 0, B: 1},
		{Kind: fault.LinkFault, Cycle: 20, A: 1, B: 2},
		{Kind: fault.LinkFault, Cycle: 20, A: 2, B: 3},
	})
	out, err := svc.MulticastUnderFaults(0, g, 64, fp, RetryPolicy{MaxAttempts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if out.WormsKilled == 0 {
		t.Fatalf("mid-run activation killed nothing: %+v", out)
	}
	if out.Attempts < 2 {
		t.Fatalf("lossy first attempt did not trigger a retry: %+v", out)
	}
	if out.Lost != 0 || out.Unreachable != 0 {
		t.Fatalf("mesh stayed connected, yet outcome = %+v", out)
	}
	if out.Delivered != len(members)-1 {
		t.Fatalf("delivered %d of %d", out.Delivered, len(members)-1)
	}
}

// TestMulticastUnderFaultsPartition severs a member and checks it is
// accounted unreachable without burning retry attempts on it.
func TestMulticastUnderFaultsPartition(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	svc := degradedService(t, m)
	g, err := svc.NewGroup([]topology.NodeID{0, 5, 15})
	if err != nil {
		t.Fatal(err)
	}
	fp := fault.NewStaticPlan([]fault.Event{
		{Kind: fault.LinkFault, A: 14, B: 15},
		{Kind: fault.LinkFault, A: 11, B: 15},
	})
	out, err := svc.MulticastUnderFaults(0, g, 64, fp, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Partitioned || out.Unreachable != 1 {
		t.Fatalf("outcome = %+v, want one unreachable member", out)
	}
	if out.Delivered != 1 || out.Lost != 0 {
		t.Fatalf("outcome = %+v, want the reachable member delivered", out)
	}
	if out.Attempts != 1 {
		t.Fatalf("unreachable member burned retries: %+v", out)
	}
}

// TestMulticastUnderFaultsDeterministic pins reproducibility: the same
// seeded plan gives byte-identical outcomes.
func TestMulticastUnderFaultsDeterministic(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	svc := degradedService(t, m)
	var members []topology.NodeID
	for v := topology.NodeID(0); v < 64; v += 5 {
		members = append(members, v)
	}
	g, err := svc.NewGroup(members)
	if err != nil {
		t.Fatal(err)
	}
	fp := fault.NewPlan(m, fault.Spec{Links: 6, VCs: 3, Horizon: 200, Seed: 99})
	a, err := svc.MulticastUnderFaults(1, g, 128, fp, RetryPolicy{MaxAttempts: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.MulticastUnderFaults(1, g, 128, fp, RetryPolicy{MaxAttempts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("outcomes diverged:\na: %+v\nb: %+v", a, b)
	}
}
