package objects

import (
	"objectbase/internal/core"
)

// Account returns a bank-account schema whose step-granularity conflict
// relation is genuinely *asymmetric*, exercising the paper's remark after
// Definition 3 that "commutativity and, therefore, conflict are not
// necessarily symmetric relations".
//
// Operations:
//
//	Deposit(amount)          -> nil
//	Withdraw(amount)         -> bool (success; fails without effect when the
//	                            balance is insufficient)
//	Balance()                -> int64
//
// Operation granularity (no return values known): only Deposit/Deposit and
// Balance/Balance commute.
//
// Step granularity (return values known) — derived case by case from
// Definition 3, quantifying over all states on which the first sequence is
// legal:
//
//	(Withdraw=true,  Deposit)        commute: s>=w implies s+d>=w, effects add
//	(Deposit,        Withdraw=true)  conflict: on s with s+d>=w>s the swap fails
//	(Withdraw=false, Deposit)        conflict: swap may turn the failure into success
//	(Deposit,        Withdraw=false) commute: if s+d<w then s<w
//	(Withdraw=true,  Withdraw=true)  commute: both succeed either way
//	(Withdraw=false, Withdraw=false) commute: both fail either way
//	(Withdraw=false, Withdraw=true)  commute; the reverse order conflicts
//	(Balance, Withdraw=false)        commute: a failed withdrawal changes nothing
//	(Balance, anything effectful)    conflict (and symmetrically)
//
// The gap between the two granularities is what experiment E5/E7 measure.
func Account() *core.Schema {
	deposit := &core.Operation{
		Name: "Deposit",
		Apply: func(s core.State, args []core.Value) (core.Value, core.UndoFunc, error) {
			d, err := argInt(args, 0, "Deposit")
			if err != nil {
				return nil, nil, err
			}
			bal, _ := s["balance"].(int64)
			s["balance"] = bal + d
			return nil, func(st core.State) {
				cur, _ := st["balance"].(int64)
				st["balance"] = cur - d
			}, nil
		},
		Peek: func(s core.State, args []core.Value) (core.Value, error) {
			_, err := argInt(args, 0, "Deposit")
			return nil, err
		},
	}
	withdraw := &core.Operation{
		Name: "Withdraw",
		Apply: func(s core.State, args []core.Value) (core.Value, core.UndoFunc, error) {
			w, err := argInt(args, 0, "Withdraw")
			if err != nil {
				return nil, nil, err
			}
			bal, _ := s["balance"].(int64)
			if bal < w {
				return false, nil, nil
			}
			s["balance"] = bal - w
			return true, func(st core.State) {
				cur, _ := st["balance"].(int64)
				st["balance"] = cur + w
			}, nil
		},
		Peek: func(s core.State, args []core.Value) (core.Value, error) {
			w, err := argInt(args, 0, "Withdraw")
			if err != nil {
				return nil, err
			}
			bal, _ := s["balance"].(int64)
			return bal >= w, nil
		},
	}
	balance := &core.Operation{
		Name:     "Balance",
		ReadOnly: true,
		Apply: func(s core.State, args []core.Value) (core.Value, core.UndoFunc, error) {
			bal, _ := s["balance"].(int64)
			return bal, nil, nil
		},
	}

	rel := &accountConflicts{}
	return core.NewSchema("account",
		func() core.State { return core.State{"balance": int64(0)} },
		rel, deposit, withdraw, balance)
}

// accountConflicts implements the relation documented on Account.
type accountConflicts struct{}

func (accountConflicts) OpConflicts(a, b core.OpInvocation) bool {
	// Without return values only Deposit/Deposit (increments add) and the
	// read-only Balance/Balance commute; the latter was an over-coarse
	// declaration caught by the conflictsound derivation.
	if a.Op == "Balance" && b.Op == "Balance" {
		return false
	}
	return !(a.Op == "Deposit" && b.Op == "Deposit")
}

// OpsMayConflict implements core.OpFilter: OpConflicts never looks past
// the operation names.
func (r accountConflicts) OpsMayConflict(a, b string) bool {
	return r.OpConflicts(core.OpInvocation{Op: a}, core.OpInvocation{Op: b})
}

func (accountConflicts) StepConflicts(a, b core.StepInfo) bool {
	type kind int
	const (
		dep kind = iota
		wOK
		wFail
		bal
	)
	classify := func(s core.StepInfo) kind {
		switch s.Op {
		case "Deposit":
			return dep
		case "Withdraw":
			if ok, _ := s.Ret.(bool); ok {
				return wOK
			}
			return wFail
		default:
			return bal
		}
	}
	ka, kb := classify(a), classify(b)
	switch {
	case ka == dep && kb == dep:
		return false
	case ka == wOK && kb == dep:
		return false // succeeded withdrawal then deposit: swap-safe
	case ka == dep && kb == wFail:
		return false // deposit then failed withdrawal: it fails either way
	case ka == wOK && kb == wOK:
		return false
	case ka == wFail && kb == wFail:
		return false
	case ka == wFail && kb == wOK:
		// A failed then a succeeded withdrawal commute: if s < w1 and
		// s >= w2 then after the swap w2 still succeeds and w1 still fails
		// (s - w2 < w1 because s < w1). The reverse order conflicts.
		return false
	case ka == bal && kb == bal:
		return false
	case ka == bal && kb == wFail:
		return false // failed withdrawal has no effect
	case ka == wFail && kb == bal:
		return false
	default:
		return true
	}
}
