// Command mcroute computes a multicast route with any of the
// dissertation's algorithms and prints the route, its traffic, and its
// maximum source-to-destination distance.
//
// Usage:
//
//	mcroute -topo mesh:8x8  -algo dual-path  -src 12 -dests 3,40,63
//	mcroute -topo cube:6    -algo sorted-mp  -src 9  -dests 1,17,33
//	mcroute -topo mesh:8x8  -scheme multi-path -src 12 -dests 3,40,63
//	mcroute -list-schemes
//
// Algorithms (-algo): sorted-mp, sorted-mc, greedy-st, x-first,
// divided-greedy, len, dual-path, multi-path, fixed-path, tree
// (double-channel X-first).
//
// -scheme selects a routing-engine scheme by registry name instead
// (overriding -algo); -list-schemes prints the registry.
package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"multicastnet"
	"multicastnet/internal/cli"
	"multicastnet/internal/render"
	"multicastnet/internal/routing"
)

var (
	flags       = cli.Register(cli.Scheme)
	topoFlag    = flag.String("topo", "mesh:8x8", "topology: mesh:WxH or cube:N")
	algoFlag    = flag.String("algo", "dual-path", "routing algorithm (ignored when -scheme is set)")
	listSchemes = flag.Bool("list-schemes", false, "list the routing-engine schemes and exit")
	vcFlag      = flag.Int("vc", 0, "virtual-channel copies for -scheme virtual-channel (0 = scheme default)")
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

	mesh, isMesh := sys.Topology().(*multicastnet.Mesh2D)
	drawPattern := func(chans []multicastnet.Channel) {
		if *draw && isMesh {
			fmt.Print(render.Mesh(mesh, k, chans))
		}
	}
	drawStar := func(s multicastnet.Star) {
		if *draw && isMesh {
			fmt.Print(render.MeshStar(mesh, k, s))
		}
	}

	if flags.Scheme != "" {
		st, err := routing.SharedState(sys.Topology())
		if err != nil {
			return err
		}
		r, err := routing.NewWithOptions(flags.Scheme, st, routing.Options{VirtualChannels: *vcFlag})
		if err != nil {
			return err
		}
		plan := r.PlanSet(k)
		for i, p := range plan.Paths {
			fmt.Printf("path %d:  %v -> dests %v\n", i, p.Nodes, p.Dests)
		}
		var chans []multicastnet.Channel
		for i, tr := range plan.Trees {
			fmt.Printf("subnetwork %d: %d channels, destinations %v\n", i, tr.Traffic(), tr.Dests)
			chans = append(chans, tr.Edges...)
		}
		fmt.Printf("traffic: %d channels, max distance %d hops\n", plan.Traffic(), plan.MaxDistance())
		if len(plan.Paths) > 0 {
			drawStar(multicastnet.Star{Source: k.Source, Paths: plan.Paths})
		} else {
			drawPattern(chans)
		}
		fmt.Printf("multi-unicast baseline: %d channels\n", sys.MultiUnicastTraffic(k))
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
		r, err := sys.GreedyST(k)
		if err != nil {
			return err
		}
		printTreePattern(r)
		if *draw && isMesh {
			fmt.Print(render.MeshEdges(mesh, k, r.Edges))
		}
	case "x-first":
		r, err := sys.XFirstMT(k)
		if err != nil {
			return err
		}
		printTreePattern(r)
		if *draw && isMesh {
			fmt.Print(render.MeshEdges(mesh, k, r.Edges))
		}
	case "divided-greedy":
		r, err := sys.DividedGreedyMT(k)
		if err != nil {
			return err
		}
		printTreePattern(r)
		if *draw && isMesh {
			fmt.Print(render.MeshEdges(mesh, k, r.Edges))
		}
	case "len":
		r, err := sys.LEN(k)
		if err != nil {
			return err
		}
		printTreePattern(r)
	case "dual-path":
		s := sys.DualPath(k)
		printStar(s)
		drawStar(s)
	case "multi-path":
		s, err := sys.MultiPath(k)
		if err != nil {
			return err
		}
		printStar(s)
		drawStar(s)
	case "fixed-path":
		s := sys.FixedPath(k)
		printStar(s)
		drawStar(s)
	case "tree":
		trees, err := sys.DoubleChannelXFirst(k)
		if err != nil {
			return err
		}
		total := 0
		var chans []multicastnet.Channel
		for i, tr := range trees {
			fmt.Printf("subnetwork %d: %d channels, destinations %v\n", i, tr.Traffic(), tr.Dests)
			total += tr.Traffic()
			chans = append(chans, tr.Edges...)
		}
		fmt.Printf("traffic: %d channels\n", total)
		drawPattern(chans)
	default:
		return fmt.Errorf("unknown algorithm %q", *algoFlag)
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

func printStar(s multicastnet.Star) {
	for i, p := range s.Paths {
		fmt.Printf("path %d:  %v -> dests %v\n", i, p.Nodes, p.Dests)
	}
	fmt.Printf("traffic: %d channels, max distance %d hops\n", s.Traffic(), s.MaxDistance())
}

func printTreePattern(r *multicastnet.STResult) {
	fmt.Printf("traffic: %d channels (tree pattern: %v)\n", r.Links, r.IsTreePattern())
	fmt.Printf("deliveries:\n")
	for d, depth := range r.Delivered {
		fmt.Printf("  node %d at %d hops\n", d, depth)
	}
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
