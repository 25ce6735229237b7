package objects

import (
	"fmt"

	"objectbase/internal/core"
)

// Queue returns a FIFO queue schema implementing the paper's flagship
// step-granularity example (Section 5.1): "in many reasonable
// representations of queues, an Enqueue conflicts with a Dequeue only if the
// latter returns the item placed into the queue by the former".
//
// Operations:
//
//	Enqueue(item) -> nil
//	Dequeue()     -> item, or nil when empty
//	Len()         -> int64
//
// Operation granularity: every pair involving the queue's order or content
// conflicts (Enqueue/Enqueue order the items; Dequeue/Dequeue compete for
// the head; Enqueue/Dequeue may interact through an empty queue); only the
// read-only Len/Len pair commutes.
//
// Step granularity:
//
//	(Enqueue(x), Dequeue=r)  conflict iff r == x    (the paper's example)
//	(Dequeue=r, Enqueue(x))  conflict iff r == nil  (swap would hand the
//	                          dequeue the new item)
//	(Dequeue=nil, Dequeue=nil) commute (both see an empty queue)
//	(Enqueue, Enqueue)       always conflict (FIFO order is state)
//	(Len, Enqueue/Dequeue-with-item) conflict; Len commutes with
//	                          Dequeue=nil
//
// Experiment E5 measures the concurrency gap between the two granularities
// on a producer/consumer workload: while the queue is non-empty, Enqueues
// and Dequeues at step granularity never conflict, so producers and
// consumers proceed in parallel.
func Queue() *core.Schema {
	enq := &core.Operation{
		Name: "Enqueue",
		Apply: func(s core.State, args []core.Value) (core.Value, core.UndoFunc, error) {
			if len(args) < 1 {
				return nil, nil, fmt.Errorf("objects: Enqueue needs an item")
			}
			items, _ := s["items"].([]core.Value)
			s["items"] = append(items, args[0])
			return nil, func(st core.State) {
				cur, _ := st["items"].([]core.Value)
				if n := len(cur); n > 0 {
					st["items"] = cur[:n-1]
				}
			}, nil
		},
		Peek: func(s core.State, args []core.Value) (core.Value, error) {
			if len(args) < 1 {
				return nil, fmt.Errorf("objects: Enqueue needs an item")
			}
			return nil, nil
		},
	}
	deq := &core.Operation{
		Name: "Dequeue",
		Apply: func(s core.State, args []core.Value) (core.Value, core.UndoFunc, error) {
			items, _ := s["items"].([]core.Value)
			if len(items) == 0 {
				return nil, nil, nil
			}
			head := items[0]
			s["items"] = items[1:]
			return head, func(st core.State) {
				cur, _ := st["items"].([]core.Value)
				st["items"] = append([]core.Value{head}, cur...)
			}, nil
		},
		Peek: func(s core.State, args []core.Value) (core.Value, error) {
			items, _ := s["items"].([]core.Value)
			if len(items) == 0 {
				return nil, nil
			}
			return items[0], nil
		},
	}
	length := &core.Operation{
		Name:     "Len",
		ReadOnly: true,
		Apply: func(s core.State, args []core.Value) (core.Value, core.UndoFunc, error) {
			items, _ := s["items"].([]core.Value)
			return int64(len(items)), nil, nil
		},
	}

	rel := &queueConflicts{}
	return core.NewSchema("queue",
		func() core.State { return core.State{"items": []core.Value{}} },
		rel, enq, deq, length)
}

type queueConflicts struct{}

func (queueConflicts) OpConflicts(a, b core.OpInvocation) bool {
	// Any pair touching the queue's order or content may conflict; only the
	// read-only Len/Len pair provably commutes (over-coarse declaration
	// caught by the conflictsound derivation).
	return !(a.Op == "Len" && b.Op == "Len")
}

// OpsMayConflict implements core.OpFilter: OpConflicts never looks past
// the operation names.
func (r queueConflicts) OpsMayConflict(a, b string) bool {
	return r.OpConflicts(core.OpInvocation{Op: a}, core.OpInvocation{Op: b})
}

func (queueConflicts) StepConflicts(a, b core.StepInfo) bool {
	switch {
	case a.Op == "Enqueue" && b.Op == "Dequeue":
		return core.ValueEqual(b.Ret, a.Args[0])
	case a.Op == "Dequeue" && b.Op == "Enqueue":
		return a.Ret == nil
	case a.Op == "Dequeue" && b.Op == "Dequeue":
		return !(a.Ret == nil && b.Ret == nil)
	case a.Op == "Len" && b.Op == "Len":
		return false
	case a.Op == "Len" && b.Op == "Dequeue":
		return b.Ret != nil
	case a.Op == "Dequeue" && b.Op == "Len":
		return a.Ret != nil
	default:
		// Enqueue/Enqueue, Len/Enqueue, Enqueue/Len.
		return true
	}
}
