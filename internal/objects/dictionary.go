package objects

import (
	"objectbase/internal/btree"
	"objectbase/internal/core"
)

// Dictionary returns the dictionary schema of the paper's Section 2
// example: Lookup, Insert and Delete over int64 keys, implemented on the
// lock-coupled B+ tree of internal/btree — the object's own "special
// algorithm" for synchronising its physical operations, while the
// transaction-level conflict relation below is what the object base's
// scheduler sees.
//
// Conflicts are scoped per key (operations on different keys never
// conflict); at step granularity only membership-observing pairs conflict:
//
//	Lookup/Lookup                  commute
//	Delete(miss)/Lookup            commute (a missed delete has no effect)
//	Delete(miss)/Delete(miss)      commute
//	anything involving an effectful Insert/Delete on the same key conflicts
//
// The state holds the tree under the "tree" variable. CloneState is O(1):
// the tree is copy-on-write, the clone shares every node with the
// original, and whichever side is written next copies the one path it
// changes — so publishing a committed version of a dictionary (snapshot
// views) costs the same whatever it holds. The engine clones and writes
// the live state under the object latch only, which is the "no concurrent
// writer" contract btree.Tree.Clone asks for; clones are only read.
// StateEqual compares contents, and Operation.Peek computes return values
// without cloning at all (a Lookup suffices).
func Dictionary() *core.Schema {
	treeOf := func(s core.State) *btree.Tree {
		t, _ := s["tree"].(*btree.Tree)
		return t
	}
	insert := &core.Operation{
		Name: "Insert",
		Apply: func(s core.State, args []core.Value) (core.Value, core.UndoFunc, error) {
			k, err := argInt(args, 0, "Insert")
			if err != nil {
				return nil, nil, err
			}
			if len(args) < 2 {
				return nil, nil, errMissingValue
			}
			old, had := treeOf(s).Insert(k, args[1])
			undo := func(st core.State) {
				if had {
					treeOf(st).Insert(k, old)
				} else {
					treeOf(st).Delete(k)
				}
			}
			if !had {
				return nil, undo, nil
			}
			return old, undo, nil
		},
		Peek: func(s core.State, args []core.Value) (core.Value, error) {
			k, err := argInt(args, 0, "Insert")
			if err != nil {
				return nil, err
			}
			old, had := treeOf(s).Lookup(k)
			if !had {
				return nil, nil
			}
			return old, nil
		},
	}
	del := &core.Operation{
		Name: "Delete",
		Apply: func(s core.State, args []core.Value) (core.Value, core.UndoFunc, error) {
			k, err := argInt(args, 0, "Delete")
			if err != nil {
				return nil, nil, err
			}
			old, had := treeOf(s).Delete(k)
			if !had {
				return nil, nil, nil
			}
			return old, func(st core.State) { treeOf(st).Insert(k, old) }, nil
		},
		Peek: func(s core.State, args []core.Value) (core.Value, error) {
			k, err := argInt(args, 0, "Delete")
			if err != nil {
				return nil, err
			}
			old, had := treeOf(s).Lookup(k)
			if !had {
				return nil, nil
			}
			return old, nil
		},
	}
	lookup := &core.Operation{
		Name:     "Lookup",
		ReadOnly: true,
		Apply: func(s core.State, args []core.Value) (core.Value, core.UndoFunc, error) {
			k, err := argInt(args, 0, "Lookup")
			if err != nil {
				return nil, nil, err
			}
			v, had := treeOf(s).Lookup(k)
			if !had {
				return nil, nil, nil
			}
			return v, nil, nil
		},
	}
	size := &core.Operation{
		Name:     "Len",
		ReadOnly: true,
		Apply: func(s core.State, args []core.Value) (core.Value, core.UndoFunc, error) {
			return int64(treeOf(s).Len()), nil, nil
		},
	}

	// Operation granularity comes from the certified derived table
	// (conflict_gen.go): Insert/Delete pairs conflict only on equal keys,
	// Len conflicts with any mutation, Lookup commutes with everything
	// read-only. Step granularity refines with effects: a pair conflicts
	// only when at least one side actually changed membership. Len observes
	// every key, so the relation cannot be sharded per key (DerivedRelation
	// only implements Sharder via Sharded, which this table rejects): the
	// lock manager falls back to one scope per dictionary object, and the
	// per-key precision lives in the conflict test itself.
	rel := core.Refine(generatedConflicts("dictionary"), func(a, b core.StepInfo) bool {
		return dictChanged(a) || dictChanged(b)
	})
	sc := core.NewSchema("dictionary",
		func() core.State { return core.State{"tree": btree.New(0)} },
		rel, insert, del, lookup, size)
	sc.CloneState = func(s core.State) core.State {
		return core.State{"tree": treeOf(s).Clone()}
	}
	sc.StateEqual = func(a, b core.State) bool {
		return treeOf(a).Equal(treeOf(b))
	}
	return sc
}

var errMissingValue = errMissing("Insert needs (key, value)")

type errMissing string

func (e errMissing) Error() string { return "objects: " + string(e) }

// dictChanged reports whether a step actually changed dictionary
// membership; it drives the step-granularity refinement of the derived
// relation above.
func dictChanged(s core.StepInfo) bool {
	switch s.Op {
	case "Insert":
		return true
	case "Delete":
		return s.Ret != nil
	default:
		return false
	}
}
