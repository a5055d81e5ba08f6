package mltree

import (
	"bytes"
	"testing"
)

// forceParallelSplits drops the work-size gate so even tiny test datasets
// exercise the feature-parallel split-search path, restoring it afterwards.
func forceParallelSplits(t *testing.T) {
	t.Helper()
	saved := minParallelSplitWork
	minParallelSplitWork = 1
	t.Cleanup(func() { minParallelSplitWork = saved })
}

// fitAll fits one of every model on the same data with the given
// parallelism, using a fixed seed per model.
func fitAll(t *testing.T, train *Dataset, parallelism int) []Classifier {
	t.Helper()
	models := []Classifier{
		NewTree(TreeConfig{MaxDepth: 8}, nil),
		NewForest(ForestConfig{NumTrees: 12, Seed: 7, Parallelism: parallelism}),
		NewGBDT(GBDTConfig{Rounds: 15, Seed: 7, Parallelism: parallelism}),
		NewHistGBDT(HistGBDTConfig{Rounds: 15, Seed: 7, Parallelism: parallelism}),
	}
	for _, m := range models {
		if err := m.Fit(train); err != nil {
			t.Fatalf("%T.Fit: %v", m, err)
		}
	}
	return models
}

func assertSameProbs(t *testing.T, label string, a, b Classifier, X [][]float64) {
	t.Helper()
	for _, x := range X {
		pa, pb := a.PredictProba(x), b.PredictProba(x)
		if len(pa) != len(pb) {
			t.Fatalf("%s: prob lengths differ: %d vs %d", label, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("%s: probs differ at class %d: %v vs %v", label, i, pa, pb)
			}
		}
	}
}

// TestParallelismEquivalenceAllModels asserts the tentpole correctness
// contract: a seeded fit with Parallelism=8 is bit-identical to
// Parallelism=1, for every model, with the split-search gate forced open so
// the parallel paths actually run.
func TestParallelismEquivalenceAllModels(t *testing.T) {
	forceParallelSplits(t)
	train, test := noisyBlobs(31, 3, 120)
	serial := fitAll(t, train, 1)
	parallel := fitAll(t, train, 8)
	for i := range serial {
		assertSameProbs(t, typeName(serial[i]), serial[i], parallel[i], test.Features)
	}
}

func typeName(c Classifier) string {
	switch c.(type) {
	case *Tree:
		return "Tree"
	case *Forest:
		return "Forest"
	case *GBDT:
		return "GBDT"
	case *HistGBDT:
		return "HistGBDT"
	}
	return "Classifier"
}

// TestFlatTreeMatchesPointerNavigation asserts arena descent reproduces
// pointer navigation exactly: the leaf a row lands on carries the pointer
// leaf's class-aligned probabilities (single trees and every forest member)
// and each boosting arm's margin equals the pointer walk's sum.
func TestFlatTreeMatchesPointerNavigation(t *testing.T) {
	train, test := noisyBlobs(32, 3, 120)

	tr := NewTree(TreeConfig{MaxDepth: 8}, nil)
	if err := tr.Fit(train); err != nil {
		t.Fatal(err)
	}
	f := NewForest(ForestConfig{NumTrees: 12, Seed: 3})
	if err := f.Fit(train); err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name    string
		classes []int
		members []*Tree
		a       *arena
	}{
		{"tree", tr.classes, []*Tree{tr}, tr.arena},
		{"forest", f.classes, f.trees, f.arena},
	} {
		if m.a == nil || len(m.a.roots) != len(m.members) {
			t.Fatalf("%s: fit did not compile one arena root per tree", m.name)
		}
		idx := classIndex(m.classes)
		for ti, member := range m.members {
			for _, x := range test.Features {
				want := make([]float64, len(m.classes))
				for i, p := range member.root.navigate(x).Probs {
					want[idx[member.classes[i]]] = p
				}
				got := m.a.leaves[m.a.leaf(m.a.roots[ti], x):][:len(m.classes)]
				for c := range want {
					if got[c] != want[c] {
						t.Fatalf("%s member %d: arena leaf %v differs from pointer leaf %v", m.name, ti, got, want)
					}
				}
			}
		}
	}

	g := NewGBDT(GBDTConfig{Rounds: 10, Seed: 3})
	if err := g.Fit(train); err != nil {
		t.Fatal(err)
	}
	if g.chains == nil || len(g.chains.arms) != len(g.boosters) {
		t.Fatal("fit did not compile every booster chain")
	}
	for a, b := range g.boosters {
		for _, x := range test.Features {
			want := b.Bias
			for _, tn := range b.Trees {
				want += b.LR * tn.navigate(x).Value
			}
			if got := g.chains.margin(a, x); got != want {
				t.Fatalf("arena margin %v differs from pointer walk %v", got, want)
			}
		}
	}
}

// TestSerializeRoundTripCompilesFlat asserts a loaded model predicts through
// a recompiled arena — one per model, none per forest member — and matches
// the original exactly, per-row and batched.
func TestSerializeRoundTripCompilesFlat(t *testing.T) {
	train, test := noisyBlobs(33, 3, 120)
	for _, m := range fitAll(t, train, 0) {
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatalf("%s: save: %v", typeName(m), err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: load: %v", typeName(m), err)
		}
		switch lm := loaded.(type) {
		case *Tree:
			if lm.arena == nil {
				t.Fatal("loaded tree has no arena")
			}
		case *Forest:
			if lm.arena == nil || len(lm.arena.roots) != len(lm.trees) {
				t.Fatal("loaded forest has no arena over its members")
			}
			for _, tr := range lm.trees {
				if tr.arena != nil {
					t.Fatal("loaded forest member carries a compiled form of its own")
				}
			}
		case *GBDT:
			if lm.chains == nil || len(lm.chains.arms) != len(lm.boosters) {
				t.Fatal("loaded gbdt has no arena over its arms")
			}
		case *HistGBDT:
			if lm.chains == nil || len(lm.chains.arms) != len(lm.boosters) {
				t.Fatal("loaded histgbdt has no arena over its arms")
			}
		}
		assertSameProbs(t, typeName(m), m, loaded, test.Features)
		batch := loaded.PredictBatch(test.Features)
		for i, x := range test.Features {
			single := m.PredictProba(x)
			for c := range single {
				if batch[i][c] != single[c] {
					t.Fatalf("%s: batch row %d differs from single prediction", typeName(m), i)
				}
			}
		}
	}
}

// TestPredictBatchMatchesSingle asserts the parallel batch driver returns
// exactly the per-row PredictProba results, and that PredictLabels matches
// Predict.
func TestPredictBatchMatchesSingle(t *testing.T) {
	train, test := noisyBlobs(34, 3, 120)
	for _, m := range fitAll(t, train, 0) {
		batch := m.PredictBatch(test.Features)
		if len(batch) != len(test.Features) {
			t.Fatalf("%s: batch length %d, want %d", typeName(m), len(batch), len(test.Features))
		}
		for i, x := range test.Features {
			single := m.PredictProba(x)
			for c := range single {
				if batch[i][c] != single[c] {
					t.Fatalf("%s: batch row %d class %d: %v vs %v", typeName(m), i, c, batch[i], single)
				}
			}
		}
		labels := PredictLabels(m, test.Features)
		for i, x := range test.Features {
			if want := Predict(m, x); labels[i] != want {
				t.Fatalf("%s: PredictLabels[%d]=%d, Predict=%d", typeName(m), i, labels[i], want)
			}
		}
	}
}

// TestHistGBDTBinnedNavigationMatchesRaw asserts that navigating a grown
// tree via the pre-binned matrix reaches the same leaf as navigating the raw
// features — the invariant the training-time margin update relies on.
func TestHistGBDTBinnedNavigationMatchesRaw(t *testing.T) {
	train, _ := noisyBlobs(35, 3, 120)
	h := NewHistGBDT(HistGBDTConfig{Rounds: 8, Seed: 5})
	if err := h.Fit(train); err != nil {
		t.Fatal(err)
	}
	bins := newBinner(train.Features, h.Config.MaxBins)
	binned := make([][]uint16, len(train.Features))
	for i, row := range train.Features {
		br := make([]uint16, len(row))
		for f, v := range row {
			br[f] = uint16(bins.bin(f, v))
		}
		binned[i] = br
	}
	for _, b := range h.boosters {
		for _, root := range b.Trees {
			for i, row := range train.Features {
				raw := root.navigate(row)
				bn := root.navigateBinned(binned[i])
				if raw != bn {
					t.Fatalf("binned navigation reached a different leaf for row %d", i)
				}
			}
		}
	}
}

// TestRunWorkers exercises the shared pool helper directly: every index runs
// exactly once for any worker request, including degenerate ones.
func TestRunWorkers(t *testing.T) {
	for _, want := range []int{0, 1, 2, 8, 100} {
		n := 57
		counts := make([]int32, n)
		runWorkers(n, want, func(worker, i int) {
			if worker < 0 || worker > maxExtraWorkers {
				t.Errorf("worker id %d out of range", worker)
			}
			counts[i]++
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("want=%d: index %d ran %d times", want, i, c)
			}
		}
	}
	runWorkers(0, 4, func(_, _ int) { t.Fatal("task ran for n=0") })
}
