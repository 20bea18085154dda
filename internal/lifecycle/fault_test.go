package lifecycle

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fannr/internal/binio"
	"fannr/internal/resil"
)

// sink defeats dead-load elimination in the fault probes.
var sink byte

// touchLast reads the last byte of data under the guard, returning the
// classified error (nil when the read succeeds).
func touchLast(r *Ranges, data []byte, onFault func(*IndexFault)) (err error) {
	defer r.Guard(Arm(), onFault, &err)
	sink = data[len(data)-1]
	return nil
}

// mapTempFile creates a multi-page file and maps it. Skips the test on
// platforms without real mmap, where truncation cannot fault.
func mapTempFile(t *testing.T, size int) (path string, m *binio.Mapping) {
	t.Helper()
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" {
		t.Skip("SIGBUS containment test needs real mmap")
	}
	path = filepath.Join(t.TempDir(), "index.bin")
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := binio.MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return path, m
}

func TestGuardClassifiesTruncationFault(t *testing.T) {
	path, m := mapTempFile(t, 1<<16)
	r := NewRanges()
	unregister := r.Register("phl", m.Data)
	defer unregister()

	// Healthy mapping: reads succeed, no fault reported.
	if err := touchLast(r, m.Data, nil); err != nil {
		t.Fatalf("read of healthy mapping: %v", err)
	}

	// Truncate under the live mapping: the page-in now SIGBUSes, and the
	// guard must turn that into an *IndexFault naming the index instead
	// of letting the process die.
	if err := resil.TruncateTail(path, 0); err != nil {
		t.Fatal(err)
	}
	var noted *IndexFault
	err := touchLast(r, m.Data, func(f *IndexFault) { noted = f })
	var fault *IndexFault
	if !errors.As(err, &fault) {
		t.Fatalf("err = %v (%T), want *IndexFault", err, err)
	}
	if fault.Index != "phl" {
		t.Fatalf("fault attributed to %q, want phl", fault.Index)
	}
	if noted != fault {
		t.Fatal("onFault callback did not receive the classified fault")
	}
	if fault.Error() == "" || fault.Cause == "" {
		t.Fatal("fault should carry a message and cause")
	}
}

func TestGuardRepanicsUnregisteredFault(t *testing.T) {
	path, m := mapTempFile(t, 1<<16)
	r := NewRanges() // mapping NOT registered
	if err := resil.TruncateTail(path, 0); err != nil {
		t.Fatal(err)
	}
	recovered := func() (p any) {
		defer func() { p = recover() }()
		_ = touchLast(r, m.Data, nil)
		return nil
	}()
	if recovered == nil {
		t.Fatal("fault outside registered ranges must re-panic, not be swallowed")
	}
}

func TestGuardRepanicsEngineBugs(t *testing.T) {
	r := NewRanges()
	// A plain panic (engine bug) must pass through untouched.
	recovered := func() (p any) {
		defer func() { p = recover() }()
		func() {
			var err error
			defer r.Guard(Arm(), nil, &err)
			panic("engine bug")
		}()
		return nil
	}()
	if recovered != "engine bug" {
		t.Fatalf("recovered %v, want the original panic value", recovered)
	}

	// A nil map/pointer dereference is a bug too: its runtime error does
	// not carry a fault address, so it re-panics.
	recovered = func() (p any) {
		defer func() { p = recover() }()
		func() {
			var err error
			defer r.Guard(Arm(), nil, &err)
			var ptr *int
			sink = byte(*ptr)
		}()
		return nil
	}()
	if recovered == nil {
		t.Fatal("nil dereference must re-panic as an engine bug")
	}
}

func TestRangesUnregister(t *testing.T) {
	r := NewRanges()
	data := make([]byte, 4096)
	unregister := r.Register("ix", data)
	addr := uintptrOf(data)
	if name, ok := r.Lookup(addr + 10); !ok || name != "ix" {
		t.Fatalf("Lookup = %q, %v", name, ok)
	}
	unregister()
	if _, ok := r.Lookup(addr + 10); ok {
		t.Fatal("Lookup should miss after unregister")
	}
	// Empty registration is a no-op.
	r.Register("empty", nil)()
}
