package main

import (
	"slices"
	"testing"
)

// opKey is what the engine-visible identity of an op reduces to.
type opKey struct {
	code    opCode
	k1, k2  int
	amount  int64
	touches string
}

func keyOf(o op) opKey {
	k := opKey{code: o.code, k1: o.k1, k2: o.k2, amount: o.amount}
	for _, t := range o.touches {
		k.touches += t + ","
	}
	return k
}

func streamKeys(w *workload, seed int64, client, n int) []opKey {
	keys := make([]opKey, n)
	for i := range keys {
		keys[i] = keyOf(w.gen(seed, client, i, nil))
	}
	return keys
}

func TestSameSeedSameStreamDifferentSeedDifferent(t *testing.T) {
	for _, w := range workloads {
		a := streamKeys(w, 42, 0, 2000)
		if b := streamKeys(w, 42, 0, 2000); !slices.Equal(a, b) {
			t.Errorf("%s: same (seed, client) gave different op sequences", w.name)
		}
		if b := streamKeys(w, 43, 0, 2000); slices.Equal(a, b) {
			t.Errorf("%s: seeds 42 and 43 gave the same op sequence", w.name)
		}
		if b := streamKeys(w, 42, 1, 2000); slices.Equal(a, b) {
			t.Errorf("%s: clients 0 and 1 gave the same op sequence", w.name)
		}
		// An op depends on its index alone, not on how the stream got there.
		if got := keyOf(w.gen(42, 0, 1234, nil)); got != a[1234] {
			t.Errorf("%s: op 1234 entered directly differs from op 1234 reached in order", w.name)
		}
	}
}

func TestBankSerialRunsBankSchedsStream(t *testing.T) {
	sched, serial := workloadByName("bank-sched"), workloadByName("bank-serial")
	if !slices.Equal(streamKeys(sched, 7, 1, 2000), streamKeys(serial, 7, 1, 2000)) {
		t.Error("bank-serial must run the identical op stream")
	}
	if !slices.Equal(streamKeys(workloadByName("scan-view"), 7, 1, 2000), streamKeys(workloadByName("scan-modular"), 7, 1, 2000)) {
		t.Error("scan-modular must run the scan-view mix")
	}
}

func TestStreamMixAndDeclaredSets(t *testing.T) {
	const n = 20000
	count := func(w *workload) (c [5]int) {
		for i := 0; i < n; i++ {
			o := w.gen(42, 0, i, nil)
			c[o.code]++
			switch o.code {
			case opTransfer:
				if o.k1 == o.k2 || len(o.touches) != 2 || o.touches[0] != acctNames[o.k1] || o.touches[1] != acctNames[o.k2] {
					t.Fatalf("transfer %d->%d declares %v", o.k1, o.k2, o.touches)
				}
				if o.amount < 1 || o.amount > 20 {
					t.Fatalf("transfer amount %d", o.amount)
				}
			case opBalance:
				if len(o.touches) != 1 || o.touches[0] != acctNames[o.k1] {
					t.Fatalf("balance of %d declares %v", o.k1, o.touches)
				}
			default:
				if o.k1 < 0 || o.k1 >= dictKeys {
					t.Fatalf("dictionary key %d", o.k1)
				}
			}
		}
		return c
	}
	near := func(name string, got int, share float64) {
		if want := share * n; float64(got) < 0.9*want || float64(got) > 1.1*want {
			t.Errorf("%s: %d of %d ops, want about %.0f", name, got, n, want)
		}
	}
	bank := count(workloadByName("bank-sched"))
	near("bank balance", bank[opBalance], 0.25)
	near("bank transfer", bank[opTransfer], 0.75)
	scan := count(workloadByName("scan-view"))
	near("scan-view scan", scan[opScan], 0.95)
	near("scan-view insert", scan[opInsert], 0.025)
	near("scan-view delete", scan[opDelete], 0.025)
	churn := count(workloadByName("dict-churn"))
	if churn[opScan] != 0 {
		t.Errorf("dict-churn generated %d scans", churn[opScan])
	}
	near("dict-churn insert", churn[opInsert], 0.5)
}

// Names and declared sets are precomputed: generating an op allocates its
// transaction closure and nothing else.
func TestStreamAllocatesOnlyTheClosure(t *testing.T) {
	for _, w := range workloads {
		i := 0
		allocs := testing.AllocsPerRun(5000, func() {
			o := w.gen(42, 0, i, nil)
			i++
			if o.fn == nil {
				t.Fatal("op without a body")
			}
		})
		if allocs > 1 {
			t.Errorf("%s: %.2f allocations per generated op, want at most 1", w.name, allocs)
		}
	}
}

func TestPackSample(t *testing.T) {
	if s := packSample(1500, false); s != 1500 {
		t.Errorf("read sample %d", s)
	}
	if s := packSample(1500, true); s&^writeBit != 1500 || s&writeBit == 0 {
		t.Errorf("write sample %#x", s)
	}
	if s := packSample(1<<40, true); s&^writeBit != writeBit-1 {
		t.Errorf("overlong sample not clamped: %#x", s)
	}
}
