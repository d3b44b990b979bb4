package main

import (
	"errors"
	"fmt"
	"sort"

	"adhoctx/internal/disk"
	"adhoctx/internal/engine"
	"adhoctx/internal/storage"
)

// merged folds every worker's ledger into one.
func (s *stack) merged() ledger {
	out := ledger{likes: map[int64]int64{}}
	for _, wk := range s.workers {
		out.items += wk.items
		out.setnx += wk.setnx
		out.setnxBusy += wk.setnxBusy
		out.anomalies = append(out.anomalies, wk.anomalies...)
		out.orders = append(out.orders, wk.orders...)
		for p, n := range wk.likes {
			out.likes[p] += n
		}
	}
	return out
}

// check runs the workload's oracle against the stopped stack: the engine's
// final state for the in-memory workloads, the data directory reopened from
// its files alone for orders-durable. It returns every violation found.
func check(s *stack, l ledger) error {
	var errs []error
	for _, a := range l.anomalies {
		errs = append(errs, errors.New(a))
	}
	var err error
	switch s.w.name {
	case "checkout-hot":
		err = checkCheckout(s.eng, l)
	case "forum-browse":
		err = checkForum(s.eng, l)
	case "orders-durable":
		err = checkOrders(s.w, s.dir, l)
	}
	return errors.Join(append(errs, err)...)
}

// checkCheckout: for every SKU, initial minus final qty equals its order
// rows and qty never went negative; the order rows are exactly the acked
// carts' items.
func checkCheckout(e *engine.Engine, l ledger) error {
	skus, err := scan(e, "skus", "qty")
	if err != nil {
		return err
	}
	orders, err := scan(e, "orders", "sku")
	if err != nil {
		return err
	}
	sold := map[int64]int64{}
	for _, sku := range orders {
		sold[sku]++
	}
	var errs []error
	for _, sku := range sortedKeys(skus) {
		qty := skus[sku]
		if qty < 0 {
			errs = append(errs, fmt.Errorf("sku %d: qty %d is negative", sku, qty))
		}
		if skuStock-qty != sold[sku] {
			errs = append(errs, fmt.Errorf("sku %d: stock fell by %d but %d order rows", sku, skuStock-qty, sold[sku]))
		}
	}
	if int64(len(orders)) != l.items {
		errs = append(errs, fmt.Errorf("%d order rows but acked carts hold %d items", len(orders), l.items))
	}
	return errors.Join(errs...)
}

// checkForum: every post's ncomments equals its comment rows, and its likes
// equal the likes acknowledged for it. A broken lease loses likes.
func checkForum(e *engine.Engine, l ledger) error {
	ncomments, err := scan(e, "posts", "ncomments")
	if err != nil {
		return err
	}
	likes, err := scan(e, "posts", "likes")
	if err != nil {
		return err
	}
	parents, err := scan(e, "comments", "post_id")
	if err != nil {
		return err
	}
	rows := map[int64]int64{}
	for _, p := range parents {
		rows[p]++
	}
	var errs []error
	for _, p := range sortedKeys(ncomments) {
		if ncomments[p] != rows[p] {
			errs = append(errs, fmt.Errorf("post %d: ncomments %d but %d comment rows", p, ncomments[p], rows[p]))
		}
		if likes[p] != l.likes[p] {
			errs = append(errs, fmt.Errorf("post %d: likes %d but %d acked likes", p, likes[p], l.likes[p]))
		}
	}
	for p := range l.likes {
		if _, ok := likes[p]; !ok {
			errs = append(errs, fmt.Errorf("post %d: acked likes on a missing post", p))
		}
	}
	return errors.Join(errs...)
}

// checkOrders reopens the closed data directory from its files alone: every
// acked order must be recovered intact (acked ⊆ recovered), and balances
// plus all recovered order amounts must equal the opening total.
func checkOrders(w *workload, dir string, l ledger) error {
	store, rec, err := disk.Open(dir, disk.Options{SegmentSize: segmentSize})
	if err != nil {
		return fmt.Errorf("reopening %s: %w", dir, err)
	}
	defer store.Close()
	e := newEngine(w, nil)
	if err := e.LoadRecovered(rec.Checkpoint, rec.Tail, rec.LastLSN); err != nil {
		return fmt.Errorf("recovering %s: %w", dir, err)
	}
	balances, err := scan(e, "customers", "balance")
	if err != nil {
		return err
	}
	customer, err := scan(e, "orders", "customer_id")
	if err != nil {
		return err
	}
	amount, err := scan(e, "orders", "amount")
	if err != nil {
		return err
	}
	var errs []error
	for _, o := range l.orders {
		c, ok := customer[o.id]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("acked order %d missing after recovery", o.id))
		case c != o.customer || amount[o.id] != o.amount:
			errs = append(errs, fmt.Errorf("acked order %d recovered as customer %d amount %d, acked customer %d amount %d",
				o.id, c, amount[o.id], o.customer, o.amount))
		}
	}
	var total int64
	for _, b := range balances {
		total += b
	}
	for _, a := range amount {
		total += a
	}
	if want := int64(numCustomers) * openingFunds; total != want {
		errs = append(errs, fmt.Errorf("balances plus order amounts total %d, opening total %d", total, want))
	}
	return errors.Join(errs...)
}

// scan reads one integer column of every committed row, by primary key.
func scan(e *engine.Engine, table, col string) (map[int64]int64, error) {
	out := map[int64]int64{}
	i := e.Schema(table).MustCol(col)
	err := e.Run(engine.IsolationDefault, func(t *engine.Txn) error {
		rows, err := t.Select(table, storage.All{})
		if err != nil {
			return err
		}
		for _, r := range rows {
			v, ok := r[i].(int64)
			if !ok {
				return fmt.Errorf("%s %d: %s is not an integer", table, r.PK(), col)
			}
			out[r.PK()] = v
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", table, err)
	}
	return out, nil
}

func sortedKeys(m map[int64]int64) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
