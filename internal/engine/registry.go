package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"objectbase/internal/core"
)

// registry is the engine's name → object → method table. Registration is
// rare (and may overlap traffic); a lookup happens on every Ctx.Call and
// Ctx.Do, from every client at once. So the two sides touch different
// memory: registration inserts into the maps under mu and drops the
// published snapshot, and the transaction paths resolve names against an
// immutable snapshot behind one atomic load, rebuilding it under mu only
// when a registration has dropped it. A lookup on a steady registry
// therefore writes nothing shared. Registration-time lookups (Object) read
// the maps under mu and never build a snapshot, so a setup that registers
// n objects does O(n) work, not one snapshot rebuild per registration.
type registry struct {
	mu      sync.Mutex
	objects map[string]*Object
	methods map[string]map[string]MethodFunc
	snap    atomic.Pointer[regSnap]
}

// regSnap is an immutable copy of the registry, keyed by object name.
type regSnap struct {
	entries map[string]regEntry
}

// regEntry is one object of a snapshot with its methods; obj is nil for
// a name that has methods but no object.
type regEntry struct {
	obj     *Object
	methods map[string]MethodFunc
}

// current returns the published snapshot, building one if a registration
// dropped it.
func (r *registry) current() *regSnap {
	if s := r.snap.Load(); s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.snap.Load(); s != nil {
		return s
	}
	s := &regSnap{entries: make(map[string]regEntry, len(r.objects))}
	for name, o := range r.objects {
		s.entries[name] = regEntry{obj: o}
	}
	for name, ms := range r.methods {
		ent := s.entries[name]
		ent.methods = make(map[string]MethodFunc, len(ms))
		for m, fn := range ms {
			ent.methods[m] = fn
		}
		s.entries[name] = ent
	}
	r.snap.Store(s)
	return s
}

// drop unpublishes the snapshot after a registration changed the maps;
// r.mu is held. A setup that registers before any transaction runs has
// nothing published, so it pays a load, not a store.
func (r *registry) drop() {
	if r.snap.Load() != nil {
		r.snap.Store(nil)
	}
}

// method checks that the entry holds an object and then that the object
// has the method, in that order, so each failure names its own cause.
func (ent regEntry) method(object, method string) (MethodFunc, error) {
	if ent.obj == nil {
		return nil, fmt.Errorf("engine: unknown object %q", object)
	}
	fn := ent.methods[method]
	if fn == nil {
		return nil, fmt.Errorf("engine: object %q has no method %q", object, method)
	}
	return fn, nil
}

// AddObject creates an object instance. The initial state defaults to the
// schema's NewState when nil.
func (en *Engine) AddObject(name string, sc *core.Schema, initial core.State) *Object {
	if initial == nil {
		initial = sc.NewState()
	}
	o := &Object{name: name, schema: sc, eng: en, state: sc.Clone(initial)}
	if en.opts.Versioning {
		o.initVersions(initial)
	}
	r := &en.reg
	r.mu.Lock()
	r.objects[name] = o
	r.drop()
	r.mu.Unlock()
	en.rec.AddObject(name, sc, initial)
	return o
}

// Register installs a method implementation on an object.
func (en *Engine) Register(object, method string, fn MethodFunc) {
	r := &en.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.methods[object] == nil {
		r.methods[object] = make(map[string]MethodFunc)
	}
	r.methods[object][method] = fn
	r.drop()
}

// Object returns the named object, or nil. It is the registration-time
// lookup: it reads the maps under the registry mutex and never builds a
// snapshot. Transaction paths use resolveObject and resolve.
func (en *Engine) Object(name string) *Object {
	en.reg.mu.Lock()
	defer en.reg.mu.Unlock()
	return en.reg.objects[name]
}

// entry returns the named object's snapshot entry (zero when unknown).
func (en *Engine) entry(object string) regEntry {
	return en.reg.current().entries[object]
}

// resolveObject returns the named object, or nil: the transaction paths'
// lookup.
func (en *Engine) resolveObject(name string) *Object { return en.entry(name).obj }

// resolve returns the named object's method, or the error naming the
// first of the two that is unknown.
func (en *Engine) resolve(object, method string) (MethodFunc, error) {
	return en.entry(object).method(object, method)
}
