// Package engine is a fixture mirror of the engine's shard-gate surface.
package engine

import "context"

// Router mirrors the real gate surface.
type Router interface {
	TryGate(s int) bool
	LockGate(s int)
	UnlockGate(s int)
	RLockGate(s int)
	TryRGate(s int) bool
	RUnlockGate(s int)
}

// lockGateCtx is the blessed exclusive-acquire helper.
func lockGateCtx(ctx context.Context, r Router, s int) error {
	if r.TryGate(s) {
		return nil
	}
	r.LockGate(s)
	return nil
}

// rLockGateCtx is the blessed shared-acquire helper.
func rLockGateCtx(ctx context.Context, r Router, s int) error {
	if r.TryRGate(s) {
		return nil
	}
	r.RLockGate(s)
	return nil
}

// gateLoop acquires in ascending directory order: legal.
func gateLoop(ctx context.Context, r Router, shards []int) error {
	for _, s := range shards {
		if err := lockGateCtx(ctx, r, s); err != nil {
			return err
		}
	}
	return nil
}

// gateJoin grows a sorted gate set behind ordering guards: legal.
func gateJoin(ctx context.Context, r Router, gated []int, s int) error {
	switch {
	case len(gated) == 0:
		return rLockGateCtx(ctx, r, s)
	case s > gated[len(gated)-1]:
		return lockGateCtx(ctx, r, s)
	}
	return nil
}

// gateOnce takes a single gate: a sole acquisition cannot be out of
// order, legal.
func gateOnce(ctx context.Context, r Router) error {
	return rLockGateCtx(ctx, r, 0)
}

// gateRaw bypasses the ctx-aware helpers.
func gateRaw(r Router) {
	r.LockGate(1) // want "raw gate acquisition LockGate"
	r.UnlockGate(1)
}

// gateUnordered takes two gates with no ordering evidence.
func gateUnordered(ctx context.Context, r Router) error {
	if err := lockGateCtx(ctx, r, 2); err != nil { // want "lockGateCtx called without ordering discipline"
		return err
	}
	return lockGateCtx(ctx, r, 1) // want "lockGateCtx called without ordering discipline"
}
