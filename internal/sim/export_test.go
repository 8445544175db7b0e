package sim

import (
	"reflect"
	"unsafe"
)

// SpareHeld reports whether a released simulation's storage is parked for
// the next simulation.
func SpareHeld() bool {
	spare.Lock()
	defer spare.Unlock()
	return spare.set != nil
}

// ScribbleSpare fills every array of the parked set — cache lines and
// producer index, directory chunks, slabs, pages, task marks and flag
// bitmaps, overflow and undo-log storage, op and merge buffers, up to each
// slice's capacity — with non-zero garbage, and adds a garbage entry to
// every map: whatever New reuses must be reset, not assumed zero. Struct
// fields outside arrays (a cache's geometry, a page table's bucket count)
// describe the storage and are left alone.
func ScribbleSpare() {
	spare.Lock()
	defer spare.Unlock()
	if spare.set != nil {
		scribble(reflect.ValueOf(spare.set).Elem(), false, map[unsafe.Pointer]bool{})
	}
}

// recycledPkgs are the packages whose storage a set holds; pointers to
// anything else (observability counters, hooks) are not followed.
var recycledPkgs = map[string]bool{
	"repro/internal/sim":       true,
	"repro/internal/memsys":    true,
	"repro/internal/coherence": true,
	"repro/internal/ids":       true,
	"repro/internal/workload":  true,
}

// ours reports whether t's storage belongs to a set.
func ours(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array, reflect.Slice:
		return ours(t.Elem())
	}
	return t.PkgPath() == "" || recycledPkgs[t.PkgPath()]
}

// writable returns v as an addressable, settable value, unexported fields
// included.
func writable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// scribble overwrites the scalars of v that lie inside arrays (inArray)
// and recurses through structs, slices, arrays, maps and pointers.
func scribble(v reflect.Value, inArray bool, seen map[unsafe.Pointer]bool) {
	switch v.Kind() {
	case reflect.Bool:
		if inArray {
			v.SetBool(true)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if inArray {
			v.SetInt(-0x5a5a5a5a5a5a5a5b)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if inArray {
			v.SetUint(0xa5a5a5a5a5a5a5a5)
		}
	case reflect.Float32, reflect.Float64:
		if inArray {
			v.SetFloat(-12345.5)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scribble(writable(v.Field(i)), inArray, seen)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			scribble(v.Index(i), true, seen)
		}
	case reflect.Slice:
		p := v.UnsafePointer()
		if p == nil || v.Cap() == 0 || seen[p] || !ours(v.Type()) {
			return
		}
		seen[p] = true
		full := reflect.NewAt(reflect.ArrayOf(v.Cap(), v.Type().Elem()), p).Elem()
		scribble(full, true, seen)
	case reflect.Pointer:
		p := v.UnsafePointer()
		if p == nil || seen[p] || !ours(v.Type().Elem()) {
			return
		}
		seen[p] = true
		scribble(reflect.NewAt(v.Type().Elem(), p).Elem(), false, seen)
	case reflect.Map:
		if v.IsNil() || !ours(v.Type().Key()) || !ours(v.Type().Elem()) {
			return
		}
		iter := v.MapRange()
		for iter.Next() {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(iter.Value())
			scribble(e, true, seen)
		}
		k := reflect.New(v.Type().Key()).Elem()
		e := reflect.New(v.Type().Elem()).Elem()
		scribble(k, true, seen)
		scribble(e, true, seen)
		v.SetMapIndex(k, e)
	}
}
