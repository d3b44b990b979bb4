package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"adhoctx/internal/client"
	"adhoctx/internal/engine"
	"adhoctx/internal/storage"
	"adhoctx/internal/wire"
)

// Request kinds. Read-only kinds are timed into read_p*_ms, the rest into
// write_p*_ms.
const (
	kindCart    = "cart"    // checkout-hot: 1-3 SKUs, SELECT FOR UPDATE + decrement + order row
	kindStock   = "stock"   // checkout-hot: read-only stock check of 1-3 SKUs
	kindView    = "view"    // forum-browse: read-only OCC post + comments by index
	kindComment = "comment" // forum-browse: OCC read post, insert comment, bump ncomments
	kindLike    = "like"    // forum-browse: KV lease, 2PL read likes / write likes+1, DEL lease
	kindOrder   = "order"   // orders-durable: SELECT customer FOR UPDATE, debit, insert order
	kindAccount = "account" // orders-durable: read-only balance lookup
)

// request is one generated request. The server only ever receives what a
// request's kind turns these fields into.
type request struct {
	Kind   string
	Keys   []int64
	Amount int64
	Text   string
}

func (r request) readOnly() bool {
	return r.Kind == kindStock || r.Kind == kindView || r.Kind == kindAccount
}

// Data sizes and constants of the three workloads.
const (
	numSKUs      = 1000
	skuStock     = 1_000_000_000 // large enough that no cart in a run finds a SKU empty
	numPosts     = 20_000
	numComments  = 100_000
	numCustomers = 200_000
	openingFunds = 1_000_000_000 // per customer; an order debits at most 100
	likeLeaseTTL = 2 * time.Second
	seedChunk    = 10_000 // rows per seeding transaction
)

// filler is the deterministic text comment bodies and order notes are cut
// from, so generating a request costs one random offset, not one draw per
// byte.
var filler = func() string {
	b := make([]byte, 1024)
	r := rand.New(rand.NewSource(1))
	for i := range b {
		b[i] = 'a' + byte(r.Intn(26))
	}
	return string(b)
}()

func text(r *rand.Rand, n int) string {
	off := r.Intn(len(filler) - n)
	return filler[off : off+n]
}

// gen draws one request stream. Every stream is a pure function of the
// workload, the run seed and the stream's index.
type gen struct {
	w    *workload
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newGen(w *workload, seed int64, stream int64) *gen {
	rng := rand.New(rand.NewSource(seed*1_000_003 + stream))
	g := &gen{w: w, rng: rng}
	if w.zipfS > 0 {
		g.zipf = rand.NewZipf(rng, w.zipfS, 1, uint64(w.keys-1))
	}
	return g
}

// key draws a 1-based key: Zipf-skewed (key 1 hottest) or uniform.
func (g *gen) key() int64 {
	if g.zipf != nil {
		return int64(g.zipf.Uint64()) + 1
	}
	return g.rng.Int63n(int64(g.w.keys)) + 1
}

func (g *gen) next() request { return g.w.next(g) }

// workload is one traffic mix against the serving stack.
type workload struct {
	name    string
	durable bool    // WAL on a disk.Store with group commit and checkpoints
	rate    float64 // open-loop offered rate, requests/s
	keys    int     // key space the generator draws from
	zipfS   float64 // Zipf exponent; 0 means uniform
	create  func(e *engine.Engine)
	seed    func(e *engine.Engine, seed int64) error
	next    func(g *gen) request
}

// Open-loop rates are about half the closed-loop tps each workload reached
// with 2 connections on a 2-CPU x86-64 host, so the open loop measures
// latency below saturation.
var workloads = []*workload{
	{
		name: "checkout-hot", rate: 1000, keys: numSKUs, zipfS: 1.2,
		create: func(e *engine.Engine) {
			e.CreateTable(storage.NewSchema("skus",
				storage.Column{Name: "name", Type: storage.TString},
				storage.Column{Name: "qty", Type: storage.TInt}))
			e.CreateTable(storage.NewSchema("orders",
				storage.Column{Name: "sku", Type: storage.TInt}))
		},
		seed: func(e *engine.Engine, _ int64) error {
			return seedRows(e, "skus", numSKUs, func(pk int64) map[string]storage.Value {
				return map[string]storage.Value{"id": pk, "name": "sku-" + strconv.FormatInt(pk, 10), "qty": int64(skuStock)}
			})
		},
		next: func(g *gen) request {
			kind := kindCart
			if g.rng.Float64() < 0.20 {
				kind = kindStock
			}
			// Carts keep the order items were picked in, so two carts can
			// lock the same SKUs in opposite orders and deadlock.
			n := 1 + g.rng.Intn(3)
			keys := make([]int64, 0, n)
			for len(keys) < n {
				k := g.key()
				if !contains(keys, k) {
					keys = append(keys, k)
				}
			}
			return request{Kind: kind, Keys: keys}
		},
	},
	{
		name: "forum-browse", rate: 1600, keys: numPosts, zipfS: 1.1,
		create: func(e *engine.Engine) {
			e.CreateTable(storage.NewSchema("posts",
				storage.Column{Name: "title", Type: storage.TString},
				storage.Column{Name: "ncomments", Type: storage.TInt},
				storage.Column{Name: "likes", Type: storage.TInt}))
			e.CreateTable(storage.NewSchema("comments",
				storage.Column{Name: "post_id", Type: storage.TInt},
				storage.Column{Name: "body", Type: storage.TString}), "post_id")
		},
		seed: func(e *engine.Engine, seed int64) error {
			r := rand.New(rand.NewSource(seed))
			parent := make([]int64, numComments)
			count := make([]int64, numPosts+1)
			for i := range parent {
				parent[i] = r.Int63n(numPosts) + 1
				count[parent[i]]++
			}
			if err := seedRows(e, "posts", numPosts, func(pk int64) map[string]storage.Value {
				return map[string]storage.Value{"id": pk, "title": text(r, 40), "ncomments": count[pk], "likes": int64(0)}
			}); err != nil {
				return err
			}
			return seedRows(e, "comments", numComments, func(pk int64) map[string]storage.Value {
				return map[string]storage.Value{"id": pk, "post_id": parent[pk-1], "body": text(r, 64)}
			})
		},
		next: func(g *gen) request {
			p := g.rng.Float64()
			switch {
			case p < 0.03:
				return request{Kind: kindLike, Keys: []int64{g.key()}}
			case p < 0.10:
				// Comments land on uniformly drawn posts: Zipf-targeted
				// comments would grow the hottest posts' comment lists by
				// hundreds in one run, so views would get slower the
				// longer the run went on.
				return request{Kind: kindComment, Keys: []int64{g.rng.Int63n(numPosts) + 1}, Text: text(g.rng, 64)}
			}
			return request{Kind: kindView, Keys: []int64{g.key()}}
		},
	},
	{
		name: "orders-durable", durable: true, rate: 1000, keys: numCustomers,
		create: func(e *engine.Engine) {
			e.CreateTable(storage.NewSchema("customers",
				storage.Column{Name: "name", Type: storage.TString},
				storage.Column{Name: "balance", Type: storage.TInt}))
			e.CreateTable(storage.NewSchema("orders",
				storage.Column{Name: "customer_id", Type: storage.TInt},
				storage.Column{Name: "amount", Type: storage.TInt},
				storage.Column{Name: "note", Type: storage.TString}))
		},
		seed: func(e *engine.Engine, _ int64) error {
			return seedRows(e, "customers", numCustomers, func(pk int64) map[string]storage.Value {
				return map[string]storage.Value{"id": pk, "name": "customer-" + strconv.FormatInt(pk, 10), "balance": int64(openingFunds)}
			})
		},
		next: func(g *gen) request {
			if g.rng.Float64() < 0.20 {
				return request{Kind: kindAccount, Keys: []int64{g.key()}}
			}
			return request{Kind: kindOrder, Keys: []int64{g.key()}, Amount: 1 + g.rng.Int63n(100), Text: text(g.rng, 180)}
		},
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

func contains(xs []int64, x int64) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// seedRows inserts rows 1..n in chunked transactions straight into the
// engine, the way adhocserve seeds before it listens.
func seedRows(e *engine.Engine, table string, n int64, row func(pk int64) map[string]storage.Value) error {
	for lo := int64(1); lo <= n; lo += seedChunk {
		hi := min(lo+seedChunk-1, n)
		if err := e.Run(engine.IsolationDefault, func(t *engine.Txn) error {
			for pk := lo; pk <= hi; pk++ {
				if _, err := t.Insert(table, row(pk)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return fmt.Errorf("seeding %s: %w", table, err)
		}
	}
	return nil
}

// ledger is what one worker's acknowledged requests promise the oracle.
type ledger struct {
	items     int64           // checkout-hot: order rows of acked carts
	likes     map[int64]int64 // forum-browse: acked likes per post
	anomalies []string        // reads that saw an inconsistent snapshot
	orders    []ackedOrder    // orders-durable
	setnx     int64           // forum-browse: SETNX calls
	setnxBusy int64           // forum-browse: SETNX calls that found the lease held
}

type ackedOrder struct{ id, customer, amount int64 }

var errStock = errors.New("sku out of stock")

// exec runs one request through the client, recording what it acked in l.
func exec(c *client.Client, r *request, l *ledger) error {
	switch r.Kind {
	case kindCart:
		err := c.RunTxn(engine.IsolationDefault, func(t *client.Txn) error {
			for _, sku := range r.Keys {
				qty, err := selectInt(t, "skus", sku, "qty", wire.LockForUpdate)
				if err != nil {
					return err
				}
				if qty < 1 {
					return errStock
				}
				if _, err := t.Update("skus", storage.ByPK(sku), map[string]storage.Value{"qty": qty - 1}); err != nil {
					return err
				}
				if _, err := t.Insert("orders", map[string]storage.Value{"sku": sku}); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			l.items += int64(len(r.Keys))
		}
		return err
	case kindStock:
		return c.RunTxnWith(engine.IsolationDefault, client.BeginOpts{ReadOnly: true}, func(t *client.Txn) error {
			for _, sku := range r.Keys {
				if _, err := selectInt(t, "skus", sku, "qty", wire.LockNone); err != nil {
					return err
				}
			}
			return nil
		})
	case kindView:
		post := r.Keys[0]
		return c.RunTxnWith(engine.IsolationDefault, client.BeginOpts{ReadOnly: true, OCC: true}, func(t *client.Txn) error {
			n, err := selectInt(t, "posts", post, "ncomments", wire.LockNone)
			if err != nil {
				return err
			}
			rows, err := t.Select("comments", storage.Eq{Col: "post_id", Val: post}, wire.LockNone)
			if err != nil {
				return err
			}
			// One snapshot serves both reads, so they must agree.
			if int64(len(rows.Rows)) != n {
				l.anomalies = append(l.anomalies, fmt.Sprintf("post %d: ncomments %d but %d comment rows in one snapshot", post, n, len(rows.Rows)))
			}
			return nil
		})
	case kindComment:
		post := r.Keys[0]
		return c.RunTxnWith(engine.IsolationDefault, client.BeginOpts{OCC: true}, func(t *client.Txn) error {
			n, err := selectInt(t, "posts", post, "ncomments", wire.LockNone)
			if err != nil {
				return err
			}
			if _, err := t.Insert("comments", map[string]storage.Value{"post_id": post, "body": r.Text}); err != nil {
				return err
			}
			_, err = t.Update("posts", storage.ByPK(post), map[string]storage.Value{"ncomments": n + 1})
			return err
		})
	case kindLike:
		return like(c, r.Keys[0], l)
	case kindOrder:
		var id int64
		err := c.RunTxn(engine.IsolationDefault, func(t *client.Txn) error {
			bal, err := selectInt(t, "customers", r.Keys[0], "balance", wire.LockForUpdate)
			if err != nil {
				return err
			}
			if bal < r.Amount {
				return fmt.Errorf("customer %d: balance %d below %d", r.Keys[0], bal, r.Amount)
			}
			if _, err := t.Update("customers", storage.ByPK(r.Keys[0]), map[string]storage.Value{"balance": bal - r.Amount}); err != nil {
				return err
			}
			id, err = t.Insert("orders", map[string]storage.Value{"customer_id": r.Keys[0], "amount": r.Amount, "note": r.Text})
			return err
		})
		if err == nil {
			l.orders = append(l.orders, ackedOrder{id: id, customer: r.Keys[0], amount: r.Amount})
		}
		return err
	case kindAccount:
		return c.RunTxnWith(engine.IsolationDefault, client.BeginOpts{ReadOnly: true}, func(t *client.Txn) error {
			_, err := selectInt(t, "customers", r.Keys[0], "balance", wire.LockNone)
			return err
		})
	}
	return fmt.Errorf("unknown request kind %q", r.Kind)
}

// like is the paper's ad hoc transaction: a SETNX+TTL lease in the KV store
// guards a read-modify-write that the database transaction alone (plain read
// at Read Committed) would let two likes lose.
func like(c *client.Client, post int64, l *ledger) error {
	key := "like:" + strconv.FormatInt(post, 10)
	for {
		won, err := kvDo(c, func(k *client.KVConn) (bool, error) { return k.SetNXPX(key, "1", likeLeaseTTL) })
		if err != nil {
			return err
		}
		l.setnx++
		if won {
			break
		}
		l.setnxBusy++
		time.Sleep(100 * time.Microsecond)
	}
	err := c.RunTxn(engine.IsolationDefault, func(t *client.Txn) error {
		n, err := selectInt(t, "posts", post, "likes", wire.LockNone)
		if err != nil {
			return err
		}
		_, err = t.Update("posts", storage.ByPK(post), map[string]storage.Value{"likes": n + 1})
		return err
	})
	if err == nil {
		l.likes[post]++
	}
	if _, derr := kvDo(c, func(k *client.KVConn) (bool, error) { return k.Del(key) }); err == nil {
		err = derr
	}
	return err
}

// kvDo runs one KV command on a pooled connection and returns it.
func kvDo(c *client.Client, fn func(*client.KVConn) (bool, error)) (bool, error) {
	k, err := c.KV()
	if err != nil {
		return false, err
	}
	defer k.Close()
	return fn(k)
}

// selectInt reads one integer column of the row with primary key pk.
func selectInt(t *client.Txn, table string, pk int64, col string, lock wire.Lock) (int64, error) {
	rows, err := t.Select(table, storage.ByPK(pk), lock)
	if err != nil {
		return 0, err
	}
	if len(rows.Rows) != 1 {
		return 0, fmt.Errorf("%s %d: %d rows", table, pk, len(rows.Rows))
	}
	for i, name := range rows.Cols {
		if name == col {
			if v, ok := rows.Rows[0][i].(int64); ok {
				return v, nil
			}
		}
	}
	return 0, fmt.Errorf("%s %d: no integer column %q", table, pk, col)
}
