// Package hts implements Reed's hierarchical timestamps as used by nested
// timestamp ordering (Section 5.2 of the paper).
//
// A hierarchical timestamp hts(e) has the form (a1, a2, ..., ak) where
// (a1, ..., a(k-1)) is the parent's timestamp; timestamps are totally
// ordered lexicographically (with a proper prefix preceding its
// extensions).
//
// In this repository an execution's ExecID is its path of child indices, so
// the ID is the timestamp. The engine generates them as the paper's
// implementation sketch does: an environment counter numbers top-level
// transactions in start order, and a per-execution counter whose atomic
// increment numbers the children (serially issued messages get ordered
// timestamps, parallel ones unique ones). This package supplies the
// ordering and the bookkeeping NTO needs (per-operation maximum timestamps
// with the paper's garbage-collection rule).
package hts

import (
	"sync"

	"objectbase/internal/core"
)

// HTS is a hierarchical timestamp.
type HTS = core.ExecID

// Less reports a < b in the lexicographic order of Section 5.2 (a proper
// prefix precedes its extensions).
func Less(a, b HTS) bool { return a.Compare(b) < 0 }

// IssueTable is the bookkeeping behind NTO rule 1 ("if t conflicts with t'
// and t < t' then hts(e) < hts(e')"), covering both of the paper's
// implementation strategies:
//
//   - conservative (exact=false): conflicts are tested at operation
//     granularity before execution — the moral equivalent of keeping "the
//     maximum timestamp of any method execution that has issued operation
//     a" per operation (the paper's hts(a));
//   - exact (exact=true): the step's provisionally computed return value
//     participates, so only genuinely conflicting steps are ordered — at
//     the price of remembering past steps, which the paper's low-water
//     garbage collection (Prune) keeps bounded.
//
// Rule 1 applies only to *incomparable* executions, so recorded issues by
// ancestors or descendants of the requester never reject it.
type IssueTable struct {
	mu      sync.Mutex
	entries map[string][]issue // scope -> issued steps
}

type issue struct {
	step core.StepInfo
	ts   HTS
}

// NewIssueTable returns an empty table.
func NewIssueTable() *IssueTable {
	return &IssueTable{entries: make(map[string][]issue)}
}

// TryIssue checks rule 1 for a step req with timestamp ts in the given
// scope and, if admissible, records it and returns true. A false return
// means some incomparable execution with a *larger* timestamp already
// issued a step that conflicts with req (in recorded-then-req order): req's
// execution must be aborted (and typically retried with a fresh, larger
// timestamp).
//
// req.Ret is ignored unless exact is true.
func (t *IssueTable) TryIssue(scope string, rel core.ConflictRelation, exact bool, req core.StepInfo, ts HTS) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.entries[scope] {
		if e.ts.Comparable(ts) {
			continue
		}
		if ts.Compare(e.ts) > 0 {
			continue // recorded issuer is older: order already agrees
		}
		var conflicting bool
		if exact {
			conflicting = rel.StepConflicts(e.step, req)
		} else {
			conflicting = rel.OpConflicts(e.step.Invocation(), req.Invocation())
		}
		if conflicting {
			return false
		}
	}
	t.record(scope, req, ts, exact)
	return true
}

// record appends the issue; in conservative mode it compacts entries of the
// same operation class whose issuer is an ancestor of (or equal to) ts,
// which keeps the table near "one max per operation" on flat workloads.
func (t *IssueTable) record(scope string, req core.StepInfo, ts HTS, exact bool) {
	list := t.entries[scope]
	if !exact {
		out := list[:0]
		for _, e := range list {
			if e.step.Op == req.Op && e.ts.IsAncestorOf(ts) {
				continue
			}
			out = append(out, e)
		}
		list = out
	}
	t.entries[scope] = append(list, issue{step: req, ts: ts})
}

// Prune removes entries strictly below the low-water timestamp — the
// paper's garbage collection: "information about the steps of an inactive
// method execution e can be discarded as soon as for all active method
// executions e', hts(e) < hts(e')". Scopes left empty are deleted.
func (t *IssueTable) Prune(lowWater HTS) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for scope, list := range t.entries {
		out := list[:0]
		for _, e := range list {
			if e.ts.Compare(lowWater) >= 0 {
				out = append(out, e)
			}
		}
		if len(out) == 0 {
			delete(t.entries, scope)
		} else {
			t.entries[scope] = out
		}
	}
}

// Size returns the number of live entries (used by the GC experiment).
func (t *IssueTable) Size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, list := range t.entries {
		n += len(list)
	}
	return n
}
