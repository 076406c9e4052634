package main

import (
	"flag"
	"testing"

	"multicastnet/internal/golden"
	"multicastnet/internal/routing"
)

func TestParseSystem(t *testing.T) {
	good := []string{"mesh:8x8", "mesh:4x3", "cube:5"}
	for _, spec := range good {
		if _, err := parseSystem(spec); err != nil {
			t.Errorf("%q rejected: %v", spec, err)
		}
	}
	bad := []string{"", "mesh:8", "mesh:axb", "cube:x", "torus:4", "mesh:8x8x8"}
	for _, spec := range bad {
		if _, err := parseSystem(spec); err == nil {
			t.Errorf("%q accepted", spec)
		}
	}
}

func TestParseDests(t *testing.T) {
	d, err := parseDests("1, 2,3")
	if err != nil || len(d) != 3 || d[0] != 1 || d[2] != 3 {
		t.Errorf("parseDests: %v %v", d, err)
	}
	for _, bad := range []string{"", "1,,2", "a"} {
		if _, err := parseDests(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestRouteOutput pins what `mcroute -algo X` prints for every registry
// scheme and every Chapter 5 heuristic on an 8x8 mesh and a 4-cube, for
// a name that is neither, and for mesh dimensions the topology rejects.
// A failing run's golden holds the "mcroute: error" line the command
// prints on stderr.
func TestRouteOutput(t *testing.T) {
	heuristics := []string{"sorted-mp", "sorted-mc", "greedy-st", "x-first", "divided-greedy", "len"}
	type run struct{ file, topo, algo, vc, src, dests string }
	var runs []run
	for _, algo := range append(routing.Names(), heuristics...) {
		runs = append(runs,
			run{"mesh_8x8-" + algo, "mesh:8x8", algo, "0", "27", "4,18,35,49,62"},
			run{"cube_4-" + algo, "cube:4", algo, "0", "3", "4,7,10,12,15"})
	}
	runs = append(runs,
		run{"mesh_8x8-virtual-channel-vc4", "mesh:8x8", "virtual-channel", "4", "27", "4,18,35,49,62"},
		run{"mesh_8x8-unknown", "mesh:8x8", "no-such", "0", "27", "4,18,35,49,62"},
		run{"mesh_0x8-invalid", "mesh:0x8", "dual-path", "0", "0", "1"})
	for _, r := range runs {
		t.Run(r.file, func(t *testing.T) {
			for name, value := range map[string]string{
				"topo": r.topo, "algo": r.algo, "vc": r.vc, "src": r.src, "dests": r.dests,
			} {
				if err := flag.Set(name, value); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			out := golden.Stdout(t, func() { err = route() })
			if err != nil {
				out = append(out, "mcroute: "+err.Error()+"\n"...)
			}
			golden.Compare(t, "testdata/"+r.file+".txt", out)
		})
	}
}
