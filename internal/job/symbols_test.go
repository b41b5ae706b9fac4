package job

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// pointerFields lists the paths of the fields of t that hold pointers the
// garbage collector must scan.
func pointerFields(t reflect.Type, path string) []string {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return []string{path}
	case reflect.Struct:
		var out []string
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			out = append(out, pointerFields(f.Type, path+"."+f.Name)...)
		}
		return out
	case reflect.Array:
		return pointerFields(t.Elem(), path+"[]")
	}
	return nil
}

// TestJobIsPointerFree pins the job layout: no field holds a pointer, so a
// job is a no-scan object, and a job takes at most 168 bytes.
func TestJobIsPointerFree(t *testing.T) {
	if got := pointerFields(reflect.TypeOf(Job{}), "Job"); len(got) > 0 {
		t.Errorf("Job fields hold pointers: %s", strings.Join(got, ", "))
	}
	if n := unsafe.Sizeof(Job{}); n > 168 {
		t.Errorf("unsafe.Sizeof(Job{}) = %d, want at most 168", n)
	}
}

// TestSeededSymbols: every table holds the fixed vocabularies at their
// constant Syms, and QOS.Sym and State.Sym name the same strings as
// String.
func TestSeededSymbols(t *testing.T) {
	syms := NewSymbols()
	if syms.Str(SymNone) != "" || syms.Intern("") != SymNone {
		t.Fatal(`Sym 0 is not ""`)
	}
	for i, s := range seeded {
		if got := syms.Intern(s); got != Sym(i) {
			t.Errorf("Intern(%q) = %d, want the seeded %d", s, got, i)
		}
	}
	if syms.Len() != int(numSeeded) {
		t.Fatalf("interning the seeded strings grew the table to %d, want %d", syms.Len(), numSeeded)
	}
	for q := QOSNormal; q <= QOSInteractive; q++ {
		if got := syms.Str(q.Sym()); got != q.String() {
			t.Errorf("QOS %d maps to %q, want %q", q, got, q.String())
		}
	}
	for s := StatePending; s <= StateFailed; s++ {
		if got := syms.Str(s.Sym()); got != s.String() {
			t.Errorf("state %d maps to %q, want %q", s, got, s.String())
		}
	}
	if (QOSInteractive+1).Sym() != SymUnknown || (StateFailed+1).Sym() != SymUnknown {
		t.Error("an out-of-range QOS or state does not map to SymUnknown")
	}
	for _, m := range append(AllModalities, ModUnknown) {
		if id := syms.Intern(string(m)); id >= numSeeded {
			t.Errorf("modality %q is not pre-seeded (Sym %d)", m, id)
		}
	}
	for _, via := range []string{"login", "gram", "gateway", "metasched"} {
		if id := syms.Intern(via); id >= numSeeded {
			t.Errorf("submit_via %q is not pre-seeded (Sym %d)", via, id)
		}
	}
}

// TestInternBytes: a decoder's bytes intern to the Sym of the equal
// string, without allocating once the table holds it, and a new string
// does not alias the caller's buffer.
func TestInternBytes(t *testing.T) {
	syms := NewSymbols()
	buf := []byte("alice")
	a := syms.InternBytes(buf)
	buf[0] = 'A'
	if syms.Str(a) != "alice" || syms.Intern("alice") != a {
		t.Fatalf("InternBytes kept %q for Sym %d", syms.Str(a), a)
	}
	buf[0] = 'a'
	if n := testing.AllocsPerRun(100, func() { syms.InternBytes(buf) }); n != 0 {
		t.Errorf("InternBytes of an interned string: %v allocs, want 0", n)
	}
}
