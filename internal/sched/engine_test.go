package sched

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
	"multicastnet/internal/workload"
)

// cutOffConfig serves a hot zipf stream of long messages on the 8x8
// mesh under budget 1 and stops it at cycle 300, with requests still
// queued and worms still in flight.
func cutOffConfig(t *testing.T, seed uint64) ServeConfig {
	t.Helper()
	m := topology.NewMesh2D(8, 8)
	spec := workload.Spec{Model: workload.ModelZipf, Requests: 300, Groups: 4, ZipfS: 3, MeanGap: 2}
	src, err := workload.New(m, spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	cache := routing.NewPlanCache(0)
	return ServeConfig{
		Service:      Config{Router: newRouter(t, m, cache), Budget: 1},
		Requests:     spec.Requests,
		WindowCycles: 64,
		Flits:        128,
		MaxCycles:    300,
		Cache:        cache,
		Workload:     src,
	}
}

// TestServeResetMatchesFresh: an engine that served a stream cut off
// mid-flight, on another topology, and was dropped as Serve drops it,
// serves each configuration exactly as a fresh engine does, field for
// field. Serve, whose pooled engines have served the others, must agree
// too.
func TestServeResetMatchesFresh(t *testing.T) {
	hot := workload.Spec{Model: workload.ModelZipf, Requests: 200, Groups: 4, ZipfS: 3, MeanGap: 4}
	configs := []func() ServeConfig{
		func() ServeConfig { return serveConfig(t, 40, 1) },
		func() ServeConfig { return serveConfig(t, 0, 1) },
		func() ServeConfig { return workloadServeConfig(t, 1, 4, hot, 31) },
		func() ServeConfig { c := serveConfig(t, 40, 1); c.Check = true; return c },
	}
	e := new(engine)
	for i, mk := range configs {
		r := e.serve(cutOffConfig(t, uint64(7+i)))
		if r.Completed == r.Requests || e.svc.Pending() == 0 || e.net.ActiveWorms() == 0 {
			t.Fatalf("dirty stream %d was not cut off mid-flight: %+v, %d pending, %d worms",
				i, r, e.svc.Pending(), e.net.ActiveWorms())
		}
		e.drop()
		want := new(engine).serve(mk())
		if got := e.serve(mk()); got != want {
			t.Fatalf("config %d on a dirty engine:\n got %+v\nwant %+v", i, got, want)
		}
		e.drop()
		if got := Serve(mk()); got != want {
			t.Fatalf("config %d through Serve:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// strayRef returns the path of the first non-nil pointer, func, map,
// channel or interface reachable from v, through struct fields and every
// slice entry up to its capacity, other than the service's own request
// items; "" when there is none.
func strayRef(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Func, reflect.Interface, reflect.Map, reflect.Chan, reflect.UnsafePointer:
		if !v.IsNil() {
			return path
		}
	case reflect.Pointer:
		if v.IsNil() {
			return ""
		}
		if v.Type() != reflect.TypeOf((*item)(nil)) {
			return path
		}
		return strayRef(v.Elem(), path)
	case reflect.Slice:
		if !mayRefer(v.Type().Elem()) {
			return ""
		}
		v = v.Slice(0, v.Cap())
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := strayRef(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := strayRef(v.Field(i), path+"."+v.Type().Field(i).Name); p != "" {
				return p
			}
		}
	}
	return ""
}

// mayRefer reports whether a value of type t can hold what strayRef
// looks for.
func mayRefer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Func, reflect.Interface, reflect.Map, reflect.Chan, reflect.UnsafePointer, reflect.Pointer:
		return true
	case reflect.Slice, reflect.Array:
		return mayRefer(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if mayRefer(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestServePoolKeepsNoStream: the engine Serve gives back to the pool
// holds no pointer, func or interface but its own request items: no
// router, config, topology, completion callback or plan of the stream it
// served, though the stream was cut off with requests queued and worms
// in flight.
func TestServePoolKeepsNoStream(t *testing.T) {
	for try := 0; try < 100; try++ {
		Serve(cutOffConfig(t, uint64(try)))
		e := engines.Get().(*engine)
		if cap(e.arrival) == 0 {
			continue // a new engine: under the race detector the pool drops some of what it is given
		}
		if path := strayRef(reflect.ValueOf(e).Elem(), "engine"); path != "" {
			t.Fatalf("the pooled engine keeps %s of its stream", path)
		}
		return
	}
	t.Fatal("Serve gave no engine back to the pool in 100 calls")
}

// TestServeConcurrent: Serve calls made at once, each on its own pooled
// engine, return what the same calls return one at a time. Run it with
// -race.
func TestServeConcurrent(t *testing.T) {
	const goroutines, streams = 4, 3
	mk := func(g, s int) ServeConfig {
		spec := workload.Spec{Model: workload.ModelZipf, Requests: 150, Groups: 8, MeanGap: float64(4 + 4*s)}
		return workloadServeConfig(t, int32(20+10*g), 1, spec, uint64(100*g+s))
	}
	var want, got [goroutines][streams]ServeResult
	var cfgs [goroutines][streams]ServeConfig
	for g := range want {
		for s := range want[g] {
			want[g][s] = Serve(mk(g, s))
			cfgs[g][s] = mk(g, s)
		}
	}
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for s := range cfgs[g] {
				got[g][s] = Serve(cfgs[g][s])
			}
		}(g)
	}
	wg.Wait()
	for g := range want {
		for s := range want[g] {
			if got[g][s] != want[g][s] {
				t.Errorf("goroutine %d stream %d:\n got %+v\nwant %+v", g, s, got[g][s], want[g][s])
			}
		}
	}
}
