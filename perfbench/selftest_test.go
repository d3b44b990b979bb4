package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"adhoctx/internal/engine"
	"adhoctx/internal/storage"
)

// shortRun is the self-tests' run length: long enough for every request
// kind to occur, short enough to run every workload in both modes.
const shortRun = 400 * time.Millisecond

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func benchmarkJSON(t *testing.T) (endToEnd, perLayer []metricDef, names []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	return b.EndToEnd, b.PerLayer, names
}

// TestEveryMetricPrinted runs each workload briefly, timed and traced, and
// checks that the run is correct and prints exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestEveryMetricPrinted(t *testing.T) {
	endToEnd, perLayer, names := benchmarkJSON(t)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			res, violation, err := run(config{w: w, seed: 7, dur: shortRun, trace: traced}, nil)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if violation != nil || !res.Correct {
				t.Fatalf("%s trace=%v: oracle violation: %v", w.name, traced, violation)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.name, traced, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestStreamsDeterministic: the same seed draws the same requests and
// arrival times; another seed draws different ones.
func TestStreamsDeterministic(t *testing.T) {
	draw := func(w *workload, seed int64) ([]arrival, []request) {
		g := newGen(w, seed, 2)
		var closed []request
		for i := 0; i < 500; i++ {
			closed = append(closed, g.next())
		}
		return schedule(w, seed, 9, time.Second), closed
	}
	for _, w := range workloads {
		open1, closed1 := draw(w, 11)
		open2, closed2 := draw(w, 11)
		open3, closed3 := draw(w, 12)
		if len(open1) == 0 || !reflect.DeepEqual(open1, open2) || !reflect.DeepEqual(closed1, closed2) {
			t.Errorf("%s: seed 11 drew two different request streams", w.name)
		}
		if reflect.DeepEqual(open1, open3) || reflect.DeepEqual(closed1, closed3) {
			t.Errorf("%s: seeds 11 and 12 drew the same request stream", w.name)
		}
	}
}

// TestOraclesCatchTampering: each oracle fails when one acknowledged
// outcome is lost, so none can pass vacuously.
func TestOraclesCatchTampering(t *testing.T) {
	tampers := map[string]tamper{
		// A unit of stock leaves a SKU without an order row.
		"checkout-hot": func(s *stack, _ *ledger) error {
			return s.eng.Run(engine.IsolationDefault, func(tx *engine.Txn) error {
				_, err := tx.Update("skus", storage.ByPK(1), map[string]storage.Value{"qty": storage.Inc(-1)})
				return err
			})
		},
		// One acked like is not counted in the database.
		"forum-browse": func(_ *stack, l *ledger) error {
			for p, n := range l.likes {
				if n > 0 {
					l.likes[p]++
					return nil
				}
			}
			t.Fatal("forum-browse: no like acknowledged in the run")
			return nil
		},
		// One acked order is dropped before the reopen check.
		"orders-durable": func(s *stack, l *ledger) error {
			if len(l.orders) == 0 {
				t.Fatal("orders-durable: no order acknowledged in the run")
			}
			return s.eng.Run(engine.IsolationDefault, func(tx *engine.Txn) error {
				_, err := tx.Delete("orders", storage.ByPK(l.orders[0].id))
				return err
			})
		},
	}
	for _, w := range workloads {
		res, violation, err := run(config{w: w, seed: 3, dur: shortRun}, tampers[w.name])
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if violation == nil || res.Correct {
			t.Errorf("%s: oracle passed a tampered outcome", w.name)
		} else {
			t.Logf("%s: %v", w.name, firstLines(violation.Error(), 3))
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "checkout-hot", "--trace", "2"},
		{"--workload", "checkout-hot", "--seconds", "0"},
	} {
		if code := cli(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
