package shard

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"objectbase/internal/core"
	"objectbase/internal/engine"
	"objectbase/internal/obs"
)

// Space is a sharded object base: N engines behind one deterministic
// directory, with the per-shard gates the cross-shard protocol needs. It
// implements engine.Router (the routing surface of cross-shard
// transactions) and engine.Registrar (registration routes to the home
// engine), and stitches the per-shard histories back into one for the
// oracle.
//
// Gates are reader/writer: transactions running under a shard's own
// scheduler and lock manager hold the gate shared (read side), while
// transactions that need the shard to themselves — declared-set serial
// transactions and cross-shard two-phase commits — hold it exclusively
// (write side). See engine/shard_run.go for the protocol.
//
// Build the engines with a common engine.Shared (see cc.NewShardedEngines):
// the space assumes space-wide transaction identities and, under full
// recording, a space-wide history clock.
type Space struct {
	dir     *Directory
	engines []*engine.Engine
	gates   []sync.RWMutex
	// tr, when non-nil, records gate-wait spans for contended gate
	// acquisitions (uncontended TryLocks record nothing, so the serial
	// fast path stays span-free when gates are free).
	tr        *obs.Tracer
	gateNames []string // "gate-<s>", precomputed so spans allocate nothing
}

// NewSpace returns a space over the given engines (one per shard, index =
// shard index).
func NewSpace(engines []*engine.Engine) *Space {
	if len(engines) == 0 {
		panic("shard: NewSpace with no engines")
	}
	return &Space{
		dir:     NewDirectory(len(engines)),
		engines: engines,
		gates:   make([]sync.RWMutex, len(engines)),
	}
}

// SetTracer wires the flight recorder into the space's gates. Call
// before traffic starts (it is not synchronised against in-flight gate
// acquisitions).
func (sp *Space) SetTracer(tr *obs.Tracer) {
	sp.tr = tr
	if tr != nil && sp.gateNames == nil {
		sp.gateNames = make([]string, len(sp.gates))
		for i := range sp.gateNames {
			sp.gateNames[i] = "gate-" + strconv.Itoa(i)
		}
	}
}

// Directory returns the space's object→shard directory.
func (sp *Space) Directory() *Directory { return sp.dir }

// Engines returns the per-shard engines (index = shard index).
func (sp *Space) Engines() []*engine.Engine { return sp.engines }

// HomeOf implements engine.Router.
func (sp *Space) HomeOf(object string) (*engine.Engine, int, error) {
	s := sp.dir.Shard(object)
	return sp.engines[s], s, nil
}

// NumShards implements engine.Router.
func (sp *Space) NumShards() int { return len(sp.engines) }

// Base implements engine.Router.
func (sp *Space) Base() *engine.Engine { return sp.engines[0] }

// TryGate implements engine.Router.
func (sp *Space) TryGate(s int) bool { return sp.gates[s].TryLock() }

// LockGate implements engine.Router. Contended acquisitions (the
// TryLock misses) are recorded as gate-wait spans when tracing is on.
func (sp *Space) LockGate(s int) {
	if sp.tr == nil {
		sp.gates[s].Lock()
		return
	}
	if sp.gates[s].TryLock() {
		return
	}
	span := sp.tr.StartSpan(obs.PhaseGateWait, uint64(s), "", sp.gateNames[s])
	sp.gates[s].Lock()
	span.End()
}

// UnlockGate implements engine.Router.
func (sp *Space) UnlockGate(s int) { sp.gates[s].Unlock() }

// RLockGate implements engine.Router; contended shared acquisitions
// are recorded like LockGate's.
func (sp *Space) RLockGate(s int) {
	if sp.tr == nil {
		sp.gates[s].RLock()
		return
	}
	if sp.gates[s].TryRLock() {
		return
	}
	span := sp.tr.StartSpan(obs.PhaseGateWait, uint64(s), "", sp.gateNames[s])
	sp.gates[s].RLock()
	span.EndWith("shared")
}

// TryRGate implements engine.Router.
func (sp *Space) TryRGate(s int) bool { return sp.gates[s].TryRLock() }

// RUnlockGate implements engine.Router.
func (sp *Space) RUnlockGate(s int) { sp.gates[s].RUnlock() }

// AddObject implements engine.Registrar: the object is created in its
// home engine.
func (sp *Space) AddObject(name string, sc *core.Schema, initial core.State) *engine.Object {
	en, _, _ := sp.HomeOf(name)
	return en.AddObject(name, sc, initial)
}

// Register implements engine.Registrar: the method is installed on the
// object's home engine.
func (sp *Space) Register(object, method string, fn engine.MethodFunc) {
	en, _, _ := sp.HomeOf(object)
	en.Register(object, method, fn)
}

// Object returns the named object from its home engine, or nil.
func (sp *Space) Object(name string) *engine.Object {
	en, _, _ := sp.HomeOf(name)
	return en.Object(name)
}

// Exec runs a top-level transaction against the space (see
// engine.RunSharded). touches optionally declares the objects the
// transaction will access, letting a cross-shard transaction gate its
// shard set up front instead of discovering it optimistically.
func (sp *Space) Exec(ctx context.Context, name string, fn engine.MethodFunc, touches []string, args ...core.Value) (core.Value, error) {
	return engine.RunSharded(ctx, sp, name, fn, args, touches)
}

// View runs a read-only snapshot transaction against the space (see
// engine.RunViewSharded): the first touched object pins the shard whose
// watermark the snapshot is fixed at; views spanning shards fall back to
// the locked read-only path.
func (sp *Space) View(ctx context.Context, name string, fn engine.MethodFunc, args ...core.Value) (core.Value, error) {
	return engine.RunViewSharded(ctx, sp, name, fn, args)
}

// History stitches the per-shard histories into one history of the whole
// space (see Stitch). The error wraps engine.ErrHistoryDisabled or
// engine.ErrHistoryLimit when any shard cannot produce its part.
func (sp *Space) History() (*core.History, error) {
	parts := make([]*core.History, 0, len(sp.engines))
	for i, en := range sp.engines {
		h, err := en.HistoryErr()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		parts = append(parts, h)
	}
	return Stitch(parts), nil
}
