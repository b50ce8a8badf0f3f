package engine

import (
	"reflect"
	"testing"
	"unsafe"

	"leanconsensus/internal/cacheline"
	"leanconsensus/internal/dist"
	"leanconsensus/internal/register"
	"leanconsensus/internal/sched"
)

// TestPooledBlocks pins the cache-line rule (internal/cacheline) for the
// pooled state a sched run writes: an arena keeps its workers' sessions
// for the life of the process, so the session, its sched.Engine and
// register.SimMem, and every slab they hold must fill whole 128-byte
// blocks, or two workers' hot state can share a line for good. On
// jobs-mixed, unpadded runs whose two server workers' sessions were
// allocated interleaved read cpu_ms_per_kinst up to about 18, against
// about 13 otherwise. A field that grows a struct past its padding, or
// a slab allocated without cacheline.Make, fails here.
func TestPooledBlocks(t *testing.T) {
	for name, size := range map[string]uintptr{
		"engine.Session":  unsafe.Sizeof(Session{}),
		"sched.Engine":    unsafe.Sizeof(sched.Engine{}),
		"register.SimMem": unsafe.Sizeof(register.SimMem{}),
	} {
		if size%cacheline.Size != 0 {
			t.Errorf("%s is %d bytes, not a whole number of %d-byte blocks", name, size, cacheline.Size)
		}
	}

	// Grow one session through sched runs at sizes no block divides
	// evenly, then check every slab reachable from it.
	sess := NewSession()
	m, err := ByName("sched")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{3, 5, 9, 17} {
		inputs := make([]int, n)
		inputs[0] = 1
		if _, err := m.Run(Spec{N: n, Inputs: inputs, Noise: dist.Exponential{MeanVal: 1}, Seed: 1}, sess); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	checked := 0
	walkSlabs(reflect.ValueOf(sess), "Session", map[uintptr]bool{}, func(path string, s reflect.Value) {
		checked++
		if bytes := s.Cap() * int(s.Type().Elem().Size()); bytes%cacheline.Size != 0 || bytes == 640 {
			t.Errorf("%s: %d-byte slab (cap %d) is not a whole number of %d-byte blocks", path, bytes, s.Cap(), cacheline.Size)
		}
	})
	if checked < 7 {
		t.Fatalf("walked only %d slabs; the walk lost its way", checked)
	}
}

// walkSlabs calls visit for every non-empty slice reachable from v
// through struct fields and struct pointers — not through interfaces,
// maps or slice elements, which the session does not own.
func walkSlabs(v reflect.Value, path string, seen map[uintptr]bool, visit func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || v.Elem().Kind() != reflect.Struct || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		walkSlabs(v.Elem(), path, seen, visit)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkSlabs(v.Field(i), path+"."+v.Type().Field(i).Name, seen, visit)
		}
	case reflect.Slice:
		if v.Cap() > 0 {
			visit(path, v)
		}
	}
}
