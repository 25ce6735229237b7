// Package btree implements a concurrent B+ tree with lock coupling — the
// representative "special algorithm" of the paper's Section 2 discussion:
// "an object representing a dictionary data type (with methods Lookup,
// Insert and Delete) might be implemented as a B-tree. Thus, one of the
// many special B-tree algorithms could be used for intra-object
// synchronisation by this object" (the paper cites Bayer & Schkolnick,
// Ellis, Kung & Lehman, Lehman & Yao, Samadi, and others).
//
// The tree is a B+ tree: separator keys in internal nodes, key/value pairs
// in the leaves. Concurrency control is pessimistic lock coupling with
// preemptive splitting (Bayer & Schkolnick's scheme) on the nodes the tree
// owns (see Copy-on-write versions below); nodes it does not own are
// immutable and need no synchronisation at all:
//
//   - readers crab down owned nodes with shared node locks, holding at most
//     two at a time, and stop locking at the first node the tree does not
//     own — it is frozen, and so is everything below it;
//   - writers crab down with exclusive locks, splitting any full node
//     encountered on the way; because parents are split preemptively, a
//     split never propagates upward and at most two exclusive locks are
//     held at any moment;
//   - deletion is lazy (no merging): the key is removed from its leaf,
//     which may underfill; the structure remains a valid search tree. Lazy
//     deletion is the standard simplification in the concurrent B-tree
//     literature when workloads do not shrink dramatically.
//
// The tree synchronises its own physical operations — the object's
// intra-object concurrency in the paper's decomposition — while logical
// conflicts between transactions are handled by whichever scheduler the
// object base runs.
//
// # Copy-on-write versions
//
// Clone is O(1): the two trees share every node. Each node carries the
// owner token of the tree that created it and a tree writes only nodes
// carrying its current token. Clone retires the receiver's token — both
// trees get fresh ones — so every node reachable at that moment is owned
// by no tree and is never written again; a write descent replaces each
// node it does not own by a private copy, installed in the parent it has
// already copied and locked, before touching it. A version therefore
// costs one root-to-leaf path copy (three allocations per level) on the
// next write to either side, not a rebuild, and a tree that is cloned and
// then left alone — a published snapshot — stays frozen without a mode
// flag. An owned node may point at shared ones, never the reverse.
//
// Clone's contract is "no concurrent writer on the receiver" (readers
// are fine): a writer mid-descent would keep writing nodes the clone can
// reach. Every write to the receiver must happen before the Clone and
// every later one after it; the object base runs every write and every
// Clone of a live tree under the object latch, and only reads the clones.
//
// # Unlocked reads of frozen nodes
//
// A node whose owner token is not its tree's current token is frozen: the
// token was retired by a Clone, no tree will ever write the node again,
// and every node below it is frozen too. A read descent therefore locks
// nothing from the first such node down. A published snapshot — a clone
// nobody writes — has a frozen root, so a read of it is two atomic loads
// (root, then owner) plus plain reads of immutable nodes: two readers of
// one version write no shared memory.
//
// The order of the two loads is what makes this sound. Root and owner are
// written under rootMu and read atomically, root first. A root installed
// by a write carries the token current at that moment, so if the loaded
// root's token differs from the loaded owner, that token was retired by
// a Clone the owner load observed (or before the root was installed, as
// for a clone's own root): the node is frozen. And because that Clone ran
// after every write to the node, the atomic owner load orders the reader
// after those writes: the unlocked field reads race with nothing. Loading owner first
// would be unsound: a Clone and a path-copying write could slip in
// between, and the reader would take the writer's fresh, still-changing
// root for a frozen one. A reader that finds the root owned takes rootMu
// and crabs down as before; a child it reads under its parent's lock
// whose token is not the one read under rootMu was frozen before the
// parent linked it, so the descent drops its locks there.
//
// Leaves are not chained: a path copy replaces a leaf, and a next
// pointer in its left neighbour would either keep naming the old leaf or
// force copying the neighbour, and its neighbour, and so on. Scan
// re-descends from the root for each leaf instead, steering by the
// separator that bounded the previous one, so it holds at most two locks
// like every other operation. Len is a per-tree counter kept by Insert
// and Delete; it visits no node.
package btree

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Value is the tree's value type.
type Value = interface{}

// DefaultOrder is the default maximum number of children of an internal
// node.
const DefaultOrder = 8

// Tree is a concurrent B+ tree keyed by int64.
type Tree struct {
	order int
	// rootMu serialises writes of root and owner (the root node itself has
	// its own lock; swapping the root requires this outer lock). Both are
	// read atomically, root first, so a reader of a frozen root takes no
	// lock (see the package comment).
	rootMu sync.RWMutex
	root   atomic.Pointer[node]
	// owner is the token of the nodes this tree may write in place;
	// Clone replaces it.
	owner atomic.Uint64
	// n is the number of stored pairs.
	n atomic.Int64
}

// owners issues owner tokens; a token is never reused.
var owners atomic.Uint64

type node struct {
	mu sync.RWMutex
	// owner is the token of the tree that created the node; immutable.
	owner uint64
	leaf  bool
	keys  []int64
	// vals is parallel to keys in leaves.
	vals []Value
	// children is parallel to keys+1 in internal nodes.
	children []*node
}

// New returns an empty tree of the given order (minimum 3; 0 selects
// DefaultOrder).
func New(order int) *Tree {
	if order == 0 {
		order = DefaultOrder
	}
	if order < 3 {
		order = 3
	}
	own := owners.Add(1)
	t := &Tree{order: order}
	t.owner.Store(own)
	t.root.Store(&node{owner: own, leaf: true})
	return t
}

// ownedBy returns n itself if own created it, else a copy own may write.
// A node with another owner is shared and immutable, so it is read
// unlocked; the copy is sized to hold a full node without regrowing.
func (n *node) ownedBy(own uint64, order int) *node {
	if n.owner == own {
		return n
	}
	c := &node{owner: own, leaf: n.leaf, keys: append(make([]int64, 0, order-1), n.keys...)}
	if n.leaf {
		c.vals = append(make([]Value, 0, order-1), n.vals...)
	} else {
		c.children = append(make([]*node, 0, order), n.children...)
	}
	return c
}

// lockChild returns parent's idx-th child exclusively locked, replacing a
// shared child by an owned copy first. parent is owned and locked.
func (n *node) lockChild(idx int, own uint64, order int) *node {
	child := n.children[idx].ownedBy(own, order)
	n.children[idx] = child
	child.mu.Lock()
	return child
}

func (n *node) full(order int) bool {
	return len(n.keys) >= order-1
}

// search finds the index of the child to descend for key k in an internal
// node: the first separator greater than k.
func (n *node) childIndex(k int64) int {
	return sort.Search(len(n.keys), func(i int) bool { return k < n.keys[i] })
}

// leafIndex finds k's position in a leaf: (index, found).
func (n *node) leafIndex(k int64) (int, bool) {
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= k })
	return i, i < len(n.keys) && n.keys[i] == k
}

// Lookup returns the value stored under k, or (nil, false).
func (t *Tree) Lookup(k int64) (v Value, found bool) {
	leaf, _, _, locked := t.findLeaf(k)
	if i, ok := leaf.leafIndex(k); ok {
		v, found = leaf.vals[i], true
	}
	if locked {
		leaf.mu.RUnlock()
	}
	return v, found
}

// findLeaf descends to the leaf whose range holds k and returns it,
// together with the range's upper bound: the tightest separator above k
// on the path, if there is one. Every key of the leaf is below the bound
// and every key of the leaves after it is not. Owned nodes are crabbed
// with shared locks; from the first frozen node down nothing is locked
// (see the package comment). locked reports whether the leaf is returned
// read-locked.
func (t *Tree) findLeaf(k int64) (leaf *node, bound int64, bounded, locked bool) {
	cur := t.root.Load()
	own := t.owner.Load() // after root: the package comment says why
	if cur.owner == own {
		t.rootMu.RLock()
		cur, own = t.root.Load(), t.owner.Load()
		if locked = cur.owner == own; locked {
			cur.mu.RLock()
		}
		t.rootMu.RUnlock()
	}
	for !cur.leaf {
		idx := cur.childIndex(k)
		if idx < len(cur.keys) {
			bound, bounded = cur.keys[idx], true
		}
		child := cur.children[idx]
		if locked {
			if child.owner == own {
				child.mu.RLock()
			}
			cur.mu.RUnlock()
			locked = child.owner == own
		}
		cur = child
	}
	return cur, bound, bounded, locked
}

// Insert stores v under k, returning the previous value and whether one
// existed.
func (t *Tree) Insert(k int64, v Value) (Value, bool) {
	cur, own := t.lockRootForWrite(true)
	for !cur.leaf {
		idx := cur.childIndex(k)
		child := cur.lockChild(idx, own, t.order)
		if child.full(t.order) {
			// Preemptive split: cur is never full here (splitting on the
			// way down maintains the invariant), so the separator fits.
			left, right, sep := splitChild(cur, idx, child)
			// Descend into the correct half; unlock the other.
			if k < sep {
				right.mu.Unlock()
				child = left
			} else {
				left.mu.Unlock()
				child = right
			}
		}
		cur.mu.Unlock()
		cur = child
	}
	defer cur.mu.Unlock()
	i, found := cur.leafIndex(k)
	if found {
		old := cur.vals[i]
		cur.vals[i] = v
		return old, true
	}
	cur.keys = append(cur.keys, 0)
	cur.vals = append(cur.vals, nil)
	copy(cur.keys[i+1:], cur.keys[i:])
	copy(cur.vals[i+1:], cur.vals[i:])
	cur.keys[i] = k
	cur.vals[i] = v
	t.n.Add(1)
	return nil, false
}

// lockRootForWrite returns the root, owned and exclusively locked, with
// the owner token the rest of the descent copies for. With grow it splits
// a full root first so the insert descent's invariant ("current node is
// not full") holds.
func (t *Tree) lockRootForWrite(grow bool) (*node, uint64) {
	for {
		t.rootMu.Lock()
		own := t.owner.Load()
		r := t.root.Load().ownedBy(own, t.order)
		t.root.Store(r)
		r.mu.Lock()
		if !grow || !r.full(t.order) {
			t.rootMu.Unlock()
			return r, own
		}
		// Grow the tree: new root above the split halves.
		newRoot := &node{owner: own, children: []*node{r}}
		newRoot.mu.Lock()
		t.root.Store(newRoot)
		t.rootMu.Unlock()
		splitChild(newRoot, 0, r)
		// Both halves stay locked by splitChild; unlock them — the next
		// iteration re-descends from the new root.
		newRoot.children[0].mu.Unlock()
		newRoot.children[1].mu.Unlock()
		newRoot.mu.Unlock()
	}
}

// splitChild splits the full child at index idx of parent (both owned and
// locked exclusively). It returns the two halves — both locked — and the
// separator key inserted into the parent.
func splitChild(parent *node, idx int, child *node) (*node, *node, int64) {
	mid := len(child.keys) / 2
	var sep int64
	right := &node{owner: child.owner, leaf: child.leaf}
	right.mu.Lock()
	if child.leaf {
		sep = child.keys[mid]
		right.keys = append(right.keys, child.keys[mid:]...)
		right.vals = append(right.vals, child.vals[mid:]...)
		child.keys = child.keys[:mid:mid]
		child.vals = child.vals[:mid:mid]
	} else {
		sep = child.keys[mid]
		right.keys = append(right.keys, child.keys[mid+1:]...)
		right.children = append(right.children, child.children[mid+1:]...)
		child.keys = child.keys[:mid:mid]
		child.children = child.children[: mid+1 : mid+1]
	}
	// Insert separator + right into parent at idx.
	parent.keys = append(parent.keys, 0)
	copy(parent.keys[idx+1:], parent.keys[idx:])
	parent.keys[idx] = sep
	parent.children = append(parent.children, nil)
	copy(parent.children[idx+2:], parent.children[idx+1:])
	parent.children[idx+1] = right
	return child, right, sep
}

// Delete removes k, returning the removed value and whether it existed.
// Deletion is lazy: leaves may underfill; the search structure remains
// valid.
func (t *Tree) Delete(k int64) (Value, bool) {
	cur, own := t.lockRootForWrite(false)
	for !cur.leaf {
		child := cur.lockChild(cur.childIndex(k), own, t.order)
		cur.mu.Unlock()
		cur = child
	}
	defer cur.mu.Unlock()
	i, found := cur.leafIndex(k)
	if !found {
		return nil, false
	}
	old := cur.vals[i]
	cur.keys = append(cur.keys[:i], cur.keys[i+1:]...)
	cur.vals = append(cur.vals[:i], cur.vals[i+1:]...)
	t.n.Add(-1)
	return old, true
}

// Len returns the number of stored pairs in O(1), visiting no node.
func (t *Tree) Len() int { return int(t.n.Load()) }

// Scan visits pairs in ascending key order until fn returns false, one
// descent per leaf (lock-coupled down owned nodes, unlocked below them):
// the separator bounding a leaf from above is where the next leaf's range
// starts. Concurrent writers may or may not be observed (the scan is not a
// snapshot); transaction-level consistency is the scheduler's business.
func (t *Tree) Scan(fn func(k int64, v Value) bool) {
	from, more := int64(math.MinInt64), true
	for more {
		leaf, bound, bounded, locked := t.findLeaf(from)
		from, more = bound, bounded
		// Separators are never removed (no merging), so the leaf's range
		// starts exactly at from: none of its keys was visited before.
		for i := range leaf.keys {
			if !fn(leaf.keys[i], leaf.vals[i]) {
				more = false
				break
			}
		}
		if locked {
			leaf.mu.RUnlock()
		}
	}
}

// Export returns the contents as a sorted slice of pairs (tests, Equal).
func (t *Tree) Export() ([]int64, []Value) {
	var ks []int64
	var vs []Value
	t.Scan(func(k int64, v Value) bool {
		ks = append(ks, k)
		vs = append(vs, v)
		return true
	})
	return ks, vs
}

// Clone returns a tree with the receiver's contents in O(1): the two share
// every node, and each copies a node before its first write to it (see
// the package comment). No writer may run on the receiver during the
// call; readers may, on both trees, then and afterwards.
func (t *Tree) Clone() *Tree {
	t.rootMu.Lock()
	defer t.rootMu.Unlock()
	// Fresh tokens for both: the nodes reachable now belong to neither.
	own := owners.Add(2)
	out := &Tree{order: t.order}
	out.root.Store(t.root.Load())
	out.owner.Store(own)
	out.n.Store(t.n.Load())
	t.owner.Store(own - 1)
	return out
}

// Equal compares contents (quiescent trees); values compared with ==
// unless they are []Value (not supported — dictionary stores scalars).
func (t *Tree) Equal(u *Tree) bool {
	tk, tv := t.Export()
	uk, uv := u.Export()
	if len(tk) != len(uk) {
		return false
	}
	for i := range tk {
		if tk[i] != uk[i] || tv[i] != uv[i] {
			return false
		}
	}
	return true
}

// CheckInvariants verifies structural invariants on a quiescent tree:
// sorted keys, separator bounds, uniform leaf depth, node fan-out limits
// (leaves may underfill due to lazy deletion, but never overfill), no
// owned node below a shared one, Len equal to the number of pairs. It
// returns the first violation.
func (t *Tree) CheckInvariants() error {
	depth, pairs, own := -1, 0, t.owner.Load()
	var walk func(n *node, level int, lo, hi *int64) error
	walk = func(n *node, level int, lo, hi *int64) error {
		if len(n.keys) > t.order-1 {
			return fmt.Errorf("btree: node with %d keys exceeds order %d", len(n.keys), t.order)
		}
		for i := 1; i < len(n.keys); i++ {
			if n.keys[i-1] >= n.keys[i] {
				return fmt.Errorf("btree: keys out of order: %d >= %d", n.keys[i-1], n.keys[i])
			}
		}
		for _, k := range n.keys {
			if lo != nil && k < *lo {
				return fmt.Errorf("btree: key %d below separator bound %d", k, *lo)
			}
			if hi != nil && k >= *hi {
				return fmt.Errorf("btree: key %d not below separator bound %d", k, *hi)
			}
		}
		if n.leaf {
			if len(n.keys) != len(n.vals) {
				return fmt.Errorf("btree: leaf keys/vals mismatch")
			}
			pairs += len(n.keys)
			if depth == -1 {
				depth = level
			} else if depth != level {
				return fmt.Errorf("btree: leaves at depths %d and %d", depth, level)
			}
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("btree: internal node with %d keys, %d children", len(n.keys), len(n.children))
		}
		for i, c := range n.children {
			if c.owner == own && n.owner != own {
				return fmt.Errorf("btree: owned node below a shared one")
			}
			var nlo, nhi *int64
			if i > 0 {
				nlo = &n.keys[i-1]
			} else {
				nlo = lo
			}
			if i < len(n.keys) {
				nhi = &n.keys[i]
			} else {
				nhi = hi
			}
			if err := walk(c, level+1, nlo, nhi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root.Load(), 0, nil, nil); err != nil {
		return err
	}
	if pairs != t.Len() {
		return fmt.Errorf("btree: Len %d, %d pairs stored", t.Len(), pairs)
	}
	return nil
}

// String renders the contents (small trees, debugging).
func (t *Tree) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	t.Scan(func(k int64, v Value) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d:%v", k, v)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
