package main

import (
	"context"
	"fmt"
	"time"

	"objectbase"
)

// verifyResult is the correctness gate's evidence for one workload.
type verifyResult struct {
	Txns         int     `json:"txns"`
	Failed       int     `json:"failed"`
	Serialisable bool    `json:"serialisable"`
	Invariant    string  `json:"invariant"`
	InvariantOK  bool    `json:"invariant_ok"`
	VerifyS      float64 `json:"verify_s"`
	Error        string  `json:"error,omitempty"`
}

func (v *verifyResult) ok() bool { return v.Serialisable && v.InvariantOK && v.Failed == 0 }

// verifiedPass replays the head of the same op streams in count mode with
// the full history recorded, asks the oracle (legality, serialisability,
// Theorem 5) for its verdict, and checks an invariant computed from the
// transactions' own return values — so a fast wrong answer cannot pass.
func verifiedPass(w *workload, seed int64) verifyResult {
	res := verifyResult{Txns: numClients * w.verifyTxns}
	db, err := w.open(objectbase.HistoryFull)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	defer db.Close()

	type tally struct {
		failed, fresh, deleted int
		err                    error
	}
	tallies := make([]tally, numClients)
	clients := make([]*client, numClients)
	for i := range clients {
		clients[i] = &client{id: i}
	}
	phase(clients, func(c *client) {
		t := &tallies[c.id]
		for i := 0; i < w.verifyTxns; i++ {
			o := w.gen(seed, c.id, i, nil)
			v, err := w.submit(db, &o)
			switch {
			case err != nil:
				t.failed++
				if t.err == nil {
					t.err = err
				}
			case o.code == opInsert && v == nil:
				t.fresh++ // the key was absent: the dictionary grew
			case o.code == opDelete && v != nil:
				t.deleted++ // the key was present: the dictionary shrank
			}
		}
	})
	var fresh, deleted int
	for _, t := range tallies {
		res.Failed += t.failed
		fresh += t.fresh
		deleted += t.deleted
		if t.err != nil && res.Error == "" {
			res.Error = t.err.Error()
		}
	}

	if w.dict {
		want := int64(dictPreload + fresh - deleted)
		got, err := db.Exec(context.Background(), "len", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
			return ctx.Call("dict", "len")
		})
		res.Invariant = fmt.Sprintf("Len = preload %d + fresh inserts %d - successful deletes %d = %d; got %v", dictPreload, fresh, deleted, want, got)
		res.InvariantOK = err == nil && got == want
	} else {
		var sum int64
		for _, a := range acctNames {
			v, err := db.Exec(context.Background(), "balance", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
				return ctx.Call(a, "balance")
			})
			b, ok := v.(int64)
			if err != nil || !ok {
				res.Error = fmt.Sprintf("reading %s: %v (%v)", a, v, err)
				return res
			}
			sum += b
		}
		want := int64(numAccounts * initialBalance)
		res.Invariant = fmt.Sprintf("sum of balances = %d; got %d", want, sum)
		res.InvariantOK = sum == want
	}

	t := time.Now()
	_, err = db.Verify()
	res.VerifyS = time.Since(t).Seconds()
	res.Serialisable = err == nil
	if err != nil && res.Error == "" {
		res.Error = err.Error()
	}
	return res
}
