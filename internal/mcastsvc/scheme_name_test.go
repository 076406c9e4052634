package mcastsvc

import (
	"strings"
	"testing"

	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
)

// TestSchemeNameRoundTrip: every registry name the service accepts
// resolves through routing.Lookup, and the Service reports it back.
func TestSchemeNameRoundTrip(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	for _, name := range []string{"dual-path", "multi-path", "fixed-path"} {
		if _, err := routing.Lookup(name); err != nil {
			t.Errorf("%q does not resolve in the registry: %v", name, err)
		}
		svc, err := New(Config{Topology: m, SchemeName: name})
		if err != nil {
			t.Fatalf("New(SchemeName: %q): %v", name, err)
		}
		if svc.SchemeName() != name {
			t.Errorf("SchemeName() = %q, want %q", svc.SchemeName(), name)
		}
	}
}

// TestUnknownSchemeNameListsValidNames checks the helpful-error
// satellite: a typo'd SchemeName surfaces the registry's valid names.
func TestUnknownSchemeNameListsValidNames(t *testing.T) {
	_, err := New(Config{Topology: topology.NewMesh2D(4, 4), SchemeName: "dual-psth"})
	if err == nil {
		t.Fatal("New accepted an unknown scheme name")
	}
	for _, name := range routing.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid name %q", err, name)
		}
	}
}

// TestServiceRefusesDeadlockProneScheme: the service only accepts
// deadlock-free registry schemes.
func TestServiceRefusesDeadlockProneScheme(t *testing.T) {
	_, err := New(Config{Topology: topology.NewMesh2D(4, 4), SchemeName: "naive-tree"})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("New(naive-tree) = %v, want a deadlock-freedom refusal", err)
	}
}

// TestServiceAcceptsAnyDeadlockFreeRegistryScheme: schemes beyond the
// legacy enum (e.g. the tree scheme) are reachable via SchemeName.
func TestServiceAcceptsAnyDeadlockFreeRegistryScheme(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	svc, err := New(Config{Topology: m, SchemeName: "tree"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := svc.NewGroup([]topology.NodeID{1, 5, 9, 13})
	if err != nil {
		t.Fatal(err)
	}
	cost, err := svc.Multicast(1, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost.TrafficChannels <= 0 {
		t.Errorf("tree multicast traffic = %d", cost.TrafficChannels)
	}
}
