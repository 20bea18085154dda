package lifecycle

import (
	"fmt"
	"runtime/debug"
	"sync"
	"unsafe"
)

// IndexFault reports a memory fault (SIGBUS/SIGSEGV page-in failure)
// that landed inside a registered index mapping — disk damage surfacing
// at query time, not an engine bug. The server maps it to a 5xx with a
// stable code and quarantines the index.
type IndexFault struct {
	// Index names the mapping the faulting address fell in.
	Index string
	// Addr is the faulting address.
	Addr uintptr
	// Cause is the runtime's panic value, stringified.
	Cause string
}

func (f *IndexFault) Error() string {
	return fmt.Sprintf("lifecycle: memory fault at %#x inside index %q: %s", f.Addr, f.Index, f.Cause)
}

// Ranges is a registry of live index mappings, keyed by address range.
// The fault guard uses it to decide whether a recovered memory fault
// belongs to an index (contain + quarantine) or to the engine itself
// (re-panic: that is a bug the process-level recovery must keep treating
// as one). Registration happens at snapshot construction, removal at
// snapshot close, so the registry tracks exactly the mappings that can
// be touched by in-flight queries.
type Ranges struct {
	mu      sync.RWMutex
	entries map[*rangeEntry]struct{}
}

type rangeEntry struct {
	name   string
	lo, hi uintptr
}

// NewRanges returns an empty registry.
func NewRanges() *Ranges {
	return &Ranges{entries: make(map[*rangeEntry]struct{})}
}

// Register adds data's address range under name and returns its
// unregister function. Empty or nil data registers nothing (heap-loaded
// indexes cannot SIGBUS) and returns a no-op.
func (r *Ranges) Register(name string, data []byte) func() {
	if len(data) == 0 {
		return func() {}
	}
	lo := uintptrOf(data)
	e := &rangeEntry{name: name, lo: lo, hi: lo + uintptr(len(data))}
	r.mu.Lock()
	r.entries[e] = struct{}{}
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		delete(r.entries, e)
		r.mu.Unlock()
	}
}

func uintptrOf(b []byte) uintptr {
	return uintptr(unsafe.Pointer(unsafe.SliceData(b)))
}

// Lookup returns the index name owning addr, if any registered mapping
// contains it.
func (r *Ranges) Lookup(addr uintptr) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for e := range r.entries {
		if addr >= e.lo && addr < e.hi {
			return e.name, true
		}
	}
	return "", false
}

// addressable is the method set the runtime's fault panics carry when
// debug.SetPanicOnFault is armed: the faulting address. Nil-pointer
// dereferences panic with a plain runtime.Error that does NOT implement
// it, so engine bugs never masquerade as index faults.
type addressable interface{ Addr() uintptr }

// Arm enables fault containment for the calling goroutine and returns
// the previous setting, for Guard to restore.
func Arm() bool { return debug.SetPanicOnFault(true) }

// Guard is the deferred half of fault containment. Use it in exactly
// this shape, before any code that may touch a mapped index:
//
//	defer ranges.Guard(lifecycle.Arm(), onFault, &err)
//
// Arm runs at defer-statement time and sets debug.SetPanicOnFault(true),
// so a SIGBUS on a mapped page panics this goroutine instead of killing
// the process. Guard runs at defer time: it restores the previous
// panic-on-fault setting, recovers, and classifies. A memory fault whose
// address falls inside a registered range becomes an *IndexFault
// assigned to *errp (after notifying onFault, which is where the server
// quarantines the index and bumps fannr_index_faults_total). Any other
// panic — including memory faults outside registered ranges and plain
// engine panics — is re-raised untouched, so the existing recovery
// layers keep treating it as the bug it is. Being deferred directly (no
// returned closure) keeps the guard allocation-free.
func (r *Ranges) Guard(prev bool, onFault func(*IndexFault), errp *error) {
	debug.SetPanicOnFault(prev)
	p := recover()
	if p == nil {
		return
	}
	if ae, ok := p.(addressable); ok {
		addr := ae.Addr()
		if name, found := r.Lookup(addr); found {
			f := &IndexFault{Index: name, Addr: addr, Cause: fmt.Sprint(p)}
			if onFault != nil {
				onFault(f)
			}
			*errp = f
			return
		}
	}
	panic(p)
}
