// Command mcroute computes a multicast route with any of the
// dissertation's algorithms and prints the route, its traffic, and its
// maximum source-to-destination distance.
//
// Usage:
//
//	mcroute -topo mesh:8x8  -algo dual-path  -src 12 -dests 3,40,63
//	mcroute -topo cube:6    -algo sorted-mp  -src 9  -dests 1,17,33
//	mcroute -topo mesh:8x8  -algo virtual-channel -vc 4 -src 12 -dests 3,40,63
//	mcroute -list-schemes
//
// -algo is the one selector. It takes a Chapter 5 heuristic (sorted-mp,
// sorted-mc, greedy-st, x-first, divided-greedy, len) or any scheme of
// the routing registry (dual-path, multi-path, fixed-path, tree,
// virtual-channel, ...), which -list-schemes prints.
package main

import (
	"flag"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"multicastnet"
	"multicastnet/internal/cli"
	"multicastnet/internal/render"
	"multicastnet/internal/routing"
)

var (
	flags       = cli.Register(0)
	topoFlag    = flag.String("topo", "mesh:8x8", "topology: mesh:WxH or cube:N")
	algoFlag    = flag.String("algo", "dual-path", "Chapter 5 heuristic or routing-registry scheme (-list-schemes prints the registry)")
	listSchemes = flag.Bool("list-schemes", false, "list the routing-engine schemes and exit")
	vcFlag      = flag.Int("vc", 0, "virtual-channel copies for -algo virtual-channel (0 = scheme default)")
	srcFlag     = flag.Int("src", 0, "source node id")
	destsFlag   = flag.String("dests", "", "comma-separated destination node ids")
	draw        = flag.Bool("draw", true, "draw the routing pattern (mesh topologies)")
)

func main() { flags.Run(route) }

func route() error {
	if *listSchemes {
		printSchemes()
		return nil
	}

	sys, err := parseSystem(*topoFlag)
	if err != nil {
		return err
	}
	dests, err := parseDests(*destsFlag)
	if err != nil {
		return err
	}
	k, err := sys.Set(multicastnet.NodeID(*srcFlag), dests...)
	if err != nil {
		return err
	}
	mesh, drawing := sys.Topology().(*multicastnet.Mesh2D)
	drawing = drawing && *draw
	// showTree prints a tree heuristic's pattern, with its deliveries in
	// node order rather than the map's.
	showTree := func(r *multicastnet.STResult, err error) error {
		if err != nil {
			return err
		}
		fmt.Printf("traffic: %d channels (tree pattern: %v)\n", r.Links, r.IsTreePattern())
		fmt.Printf("deliveries:\n")
		nodes := make([]multicastnet.NodeID, 0, len(r.Delivered))
		for d := range r.Delivered {
			nodes = append(nodes, d)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		for _, d := range nodes {
			fmt.Printf("  node %d at %d hops\n", d, r.Delivered[d])
		}
		if drawing {
			fmt.Print(render.MeshEdges(mesh, k, r.Edges))
		}
		return nil
	}
	// showPlan prints a registry scheme's routes.
	showPlan := func(p multicastnet.Plan, err error) error {
		if err != nil {
			return err
		}
		for i, pr := range p.Paths {
			fmt.Printf("path %d:  %v -> dests %v\n", i, pr.Nodes, pr.Dests)
		}
		for i, tr := range p.Trees {
			fmt.Printf("subnetwork %d: %d channels, destinations %v\n", i, tr.Traffic(), tr.Dests)
		}
		fmt.Printf("traffic: %d channels, max distance %d hops\n", p.Traffic(), p.MaxDistance())
		if drawing {
			fmt.Print(render.MeshPlan(mesh, k, p))
		}
		return nil
	}

	switch *algoFlag {
	case "sorted-mp":
		p, err := sys.SortedMP(k)
		if err != nil {
			return err
		}
		fmt.Printf("path:    %v\n", p.Nodes)
		fmt.Printf("traffic: %d channels\n", p.Traffic())
	case "sorted-mc":
		c, err := sys.SortedMC(k)
		if err != nil {
			return err
		}
		fmt.Printf("cycle:   %v (closes back to %d)\n", c.Nodes, c.Nodes[0])
		fmt.Printf("traffic: %d channels\n", c.Traffic())
	case "greedy-st":
		err = showTree(sys.GreedyST(k))
	case "x-first":
		err = showTree(sys.XFirstMT(k))
	case "divided-greedy":
		err = showTree(sys.DividedGreedyMT(k))
	case "len":
		err = showTree(sys.LEN(k))
	default:
		err = showPlan(sys.Route(*algoFlag, k, multicastnet.RouterOptions{VirtualChannels: *vcFlag}))
	}
	if err != nil {
		return err
	}
	fmt.Printf("multi-unicast baseline: %d channels\n", sys.MultiUnicastTraffic(k))
	return nil
}

func parseSystem(spec string) (*multicastnet.System, error) {
	switch {
	case strings.HasPrefix(spec, "mesh:"):
		dims := strings.Split(strings.TrimPrefix(spec, "mesh:"), "x")
		if len(dims) != 2 {
			return nil, fmt.Errorf("mesh spec must be mesh:WxH")
		}
		w, err1 := strconv.Atoi(dims[0])
		h, err2 := strconv.Atoi(dims[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad mesh dimensions %q", spec)
		}
		return multicastnet.NewMeshSystem(w, h)
	case strings.HasPrefix(spec, "cube:"):
		n, err := strconv.Atoi(strings.TrimPrefix(spec, "cube:"))
		if err != nil {
			return nil, fmt.Errorf("bad cube dimension %q", spec)
		}
		return multicastnet.NewCubeSystem(n)
	default:
		return nil, fmt.Errorf("topology must be mesh:WxH or cube:N")
	}
}

func parseDests(s string) ([]multicastnet.NodeID, error) {
	if s == "" {
		return nil, fmt.Errorf("-dests is required")
	}
	var out []multicastnet.NodeID
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad destination %q", part)
		}
		out = append(out, multicastnet.NodeID(v))
	}
	return out, nil
}

func printSchemes() {
	for _, info := range routing.Schemes() {
		safety := "deadlock-free"
		if !info.DeadlockFree {
			safety = "NOT deadlock-free"
		}
		fmt.Printf("%-18s %-18s %s\n", info.Name, safety, info.Description)
	}
}
