package main

import (
	"context"
	"fmt"

	"objectbase"
)

// The two op streams are ported from internal/load/scenarios.go (bank and
// scan-read-mostly) rather than imported: the benchmark must keep
// compiling and keep generating the same transactions while the code it
// measures is refactored underneath it.
const (
	numAccounts    = 16
	initialBalance = 1000
	dictKeys       = 256 // key space; even keys are preloaded
	scanWidth      = 8
	serialShards   = 8 // bank-serial's shard count
)

// workload is one named set of inputs plus the façade configuration it
// runs against. The engine sees only the generated transactions.
type workload struct {
	name string
	why  string
	// options are the Open options beyond the history mode.
	options []objectbase.Option
	// dict selects the dictionary op stream (else the bank stream);
	// readPct is the share of read-only transactions in it.
	dict    bool
	readPct int
	// declared submits through ExecTouching with the precomputed object
	// set; view submits read-only transactions through DB.View.
	declared bool
	view     bool
	// verifyTxns is how many transactions each client runs in the
	// verified pass. The oracle is quadratic in the size of the history
	// (2 x 300 bank transactions verify in 1.1 s, 2 x 2000 in 60 s; 1000
	// steps on the one dictionary in 1.2 s, 3600 in 22 s — recorded in
	// README.md as an open question), so each workload gets the count
	// that keeps its pass near one second.
	verifyTxns int
}

var workloads = []*workload{
	{
		name:       "bank-sched",
		why:        "default Open(): 16 accounts, 75% nested transfers + 25% balance reads via Exec; engine scheduled path, cc N2PL and the lock table do the work, shard and view paths none",
		verifyTxns: 300,
	},
	{
		name:     "bank-serial",
		why:      "identical op stream, WithShards(8) + declared sets via ExecTouching: scheduler and lock table bypassed, shard directory, gates and the serial loop do the work; the measured lower bound",
		options:  []objectbase.Option{objectbase.WithShards(serialShards)},
		declared: true, verifyTxns: 300,
	},
	{
		name:    "scan-view",
		why:     "one B-tree dictionary, WithReadOnly(): 95% scans (Len + 8 lookups) via View, 5% insert/delete via Exec; the snapshot path (version ring, view.go, btree reads) with a trickle of publishing writers",
		options: []objectbase.Option{objectbase.WithReadOnly()},
		dict:    true, readPct: 95, view: true, verifyTxns: 60,
	},
	{
		name:    "dict-churn",
		why:     "same dictionary and WithReadOnly(), 100% single-key insert/delete via Exec: version publication seen from the write side, so a view speed-up paid for by dearer publication shows as a loss here",
		options: []objectbase.Option{objectbase.WithReadOnly()},
		dict:    true, readPct: 0, verifyTxns: 500,
	},
	{
		name:    "scan-modular",
		why:     "the scan-view mix, all via Exec under scheduler modular: the paper's Theorem 5 certifier plus engine dependency tracking, which no other workload touches",
		options: []objectbase.Option{objectbase.WithScheduler("modular")},
		dict:    true, readPct: 95, verifyTxns: 60,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// open creates the workload's DB, registers its objects and methods and
// preloads it: everything setup_s times.
func (w *workload) open(history objectbase.HistoryMode) (*objectbase.DB, error) {
	db, err := objectbase.Open(append([]objectbase.Option{objectbase.WithHistory(history)}, w.options...)...)
	if err != nil {
		return nil, err
	}
	if w.dict {
		return db, setupDict(db)
	}
	return db, setupBank(db)
}

// Names and declared object sets are computed once, so generating an op
// allocates only its transaction closure.
var (
	acctNames  [numAccounts]string
	acctSingle [numAccounts][]string              // declared set of a balance read
	acctPairs  [numAccounts][numAccounts][]string // declared set of a transfer
	dictSet    = []string{"dict"}
)

func init() {
	for i := range acctNames {
		acctNames[i] = fmt.Sprintf("acct%d", i)
		acctSingle[i] = []string{acctNames[i]}
	}
	for i := range acctPairs {
		for j := range acctPairs[i] {
			acctPairs[i][j] = []string{acctNames[i], acctNames[j]}
		}
	}
}

func setupBank(db *objectbase.DB) error {
	for _, a := range acctNames {
		if err := db.RegisterObject(a, objectbase.Account(), objectbase.State{"balance": int64(initialBalance)}); err != nil {
			return err
		}
		methods := []struct {
			name string
			fn   objectbase.MethodFunc
		}{
			{"deposit", func(ctx *objectbase.Ctx) (objectbase.Value, error) { return do(ctx, 1, a, "Deposit", ctx.Arg(0)) }},
			{"withdraw", func(ctx *objectbase.Ctx) (objectbase.Value, error) { return do(ctx, 1, a, "Withdraw", ctx.Arg(0)) }},
			{"balance", func(ctx *objectbase.Ctx) (objectbase.Value, error) { return do(ctx, 0, a, "Balance") }},
		}
		for _, m := range methods {
			if err := db.RegisterMethod(a, m.name, m.fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// setupDict registers the "dict" B-tree dictionary preloaded with the
// even half of the key space (so lookups miss too) and its four methods.
func setupDict(db *objectbase.DB) error {
	sc := objectbase.Dictionary()
	st := sc.NewState()
	for key := 0; key < dictKeys; key += 2 {
		if _, _, err := sc.MustOp("Insert").Apply(st, []objectbase.Value{int64(key), int64(key)}); err != nil {
			return err
		}
	}
	if err := db.RegisterObject("dict", sc, st); err != nil {
		return err
	}
	methods := []struct {
		name string
		fn   objectbase.MethodFunc
	}{
		{"lookup", func(ctx *objectbase.Ctx) (objectbase.Value, error) { return do(ctx, 1, "dict", "Lookup", ctx.Arg(0)) }},
		{"insert", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
			return do(ctx, 2, "dict", "Insert", ctx.Arg(0), ctx.Arg(1))
		}},
		{"delete", func(ctx *objectbase.Ctx) (objectbase.Value, error) { return do(ctx, 1, "dict", "Delete", ctx.Arg(0)) }},
		{"len", func(ctx *objectbase.Ctx) (objectbase.Value, error) { return do(ctx, 0, "dict", "Len") }},
	}
	for _, m := range methods {
		if err := db.RegisterMethod("dict", m.name, m.fn); err != nil {
			return err
		}
	}
	return nil
}

const dictPreload = dictKeys / 2

// opCode is what a generated transaction does; the verified pass keys its
// invariants on it.
type opCode uint8

const (
	opBalance opCode = iota
	opTransfer
	opScan
	opInsert
	opDelete
)

var opNames = [...]string{"balance", "transfer", "scan", "insert", "delete"}

// op is one generated transaction. code, k1, k2 and amount are the
// generator's decisions (accounts or dictionary key; -1 when unused),
// kept so tests can compare streams; the engine is handed name, touches
// and fn only.
type op struct {
	code    opCode
	k1, k2  int
	amount  int64
	touches []string
	fn      objectbase.MethodFunc
}

func (o *op) readOnly() bool { return o.code == opBalance || o.code == opScan }

// rng is a splitmix64 sequence. Seeding it from (seed, client, index)
// makes every op a pure function of those three, so a stream can be
// entered at any index and two runs agree however far each gets.
type rng uint64

func opRng(seed int64, client, index int) rng {
	r := rng(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(client)<<48 ^ uint64(index))
	return rng(r.next()) // scramble, so neighbouring indexes start unrelated sequences
}

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn is uniform on [0, n) for the small n used here (the modulo bias
// at n <= 256 is below 2^-55).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// gen returns the client's index-th transaction. tc is nil in untraced
// rounds; traced, the bodies record engine.body/call spans into it.
func (w *workload) gen(seed int64, client, index int, tc *clientTrace) op {
	r := opRng(seed, client, index)
	var o op
	if w.dict {
		o = genDict(&r, w.readPct, client, index, tc)
	} else {
		o = genBank(&r, tc)
	}
	if tc != nil {
		o.fn = tc.body(o.fn)
	}
	return o
}

// genBank: 25% balance reads, 75% transfers of 1..20 between two distinct
// uniformly chosen accounts.
func genBank(r *rng, tc *clientTrace) op {
	if r.intn(4) == 0 {
		k := r.intn(numAccounts)
		a := acctNames[k]
		return op{code: opBalance, k1: k, k2: -1, touches: acctSingle[k],
			fn: func(ctx *objectbase.Ctx) (objectbase.Value, error) {
				return call(tc, ctx, a, "balance")
			}}
	}
	from, to := r.intn(numAccounts), r.intn(numAccounts)
	if to == from {
		to = (from + 1) % numAccounts
	}
	fromA, toA := acctNames[from], acctNames[to]
	amount := int64(1 + r.intn(20))
	return op{code: opTransfer, k1: from, k2: to, amount: amount, touches: acctPairs[from][to],
		fn: func(ctx *objectbase.Ctx) (objectbase.Value, error) {
			ok, err := call(tc, ctx, fromA, "withdraw", amount)
			if err != nil {
				return nil, err
			}
			if ok != true {
				return false, nil // insufficient funds: commit having moved nothing
			}
			if _, err := call(tc, ctx, toA, "deposit", amount); err != nil {
				return nil, err
			}
			return true, nil
		}}
}

// genDict: readPct% scans (Len + scanWidth consecutive lookups from a
// uniform start key), the rest split evenly between a single-key insert
// and a single-key delete.
func genDict(r *rng, readPct, client, index int, tc *clientTrace) op {
	start := r.intn(dictKeys)
	if r.intn(100) < readPct {
		return op{code: opScan, k1: start, k2: -1, touches: dictSet,
			fn: func(ctx *objectbase.Ctx) (objectbase.Value, error) {
				if _, err := call(tc, ctx, "dict", "len"); err != nil {
					return nil, err
				}
				hits := int64(0)
				for j := 0; j < scanWidth; j++ {
					v, err := call(tc, ctx, "dict", "lookup", int64((start+j)%dictKeys))
					if err != nil {
						return nil, err
					}
					if v != nil {
						hits++
					}
				}
				return hits, nil
			}}
	}
	key := int64(start)
	if r.intn(2) == 0 {
		val := int64(client*1_000_000 + index)
		return op{code: opInsert, k1: start, k2: -1, touches: dictSet,
			fn: func(ctx *objectbase.Ctx) (objectbase.Value, error) {
				return call(tc, ctx, "dict", "insert", key, val)
			}}
	}
	return op{code: opDelete, k1: start, k2: -1, touches: dictSet,
		fn: func(ctx *objectbase.Ctx) (objectbase.Value, error) {
			return call(tc, ctx, "dict", "delete", key)
		}}
}

// submit runs one generated transaction down the workload's façade entry
// point and reports which span kind brackets it.
func (w *workload) submit(db *objectbase.DB, o *op) (objectbase.Value, error) {
	switch w.route(o) {
	case spanView:
		return db.View(context.Background(), opNames[o.code], o.fn)
	case spanExecTouching:
		return db.ExecTouching(context.Background(), opNames[o.code], o.touches, o.fn)
	default:
		return db.Exec(context.Background(), opNames[o.code], o.fn)
	}
}

// route names the façade entry point an op takes on this workload, as
// the span kind that brackets it.
func (w *workload) route(o *op) spanKind {
	switch {
	case w.view && o.readOnly():
		return spanView
	case w.declared:
		return spanExecTouching
	default:
		return spanExec
	}
}
