package mltree

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// pointerProba is the pointer-walk predict path the arena replaced, kept as
// the reference the serving form must match bit for bit: one navigate per
// tree, forest members re-aligned onto the forest's classes row by row and
// summed over every class in member order, boosting margins summed over the
// pointer chain.
func pointerProba(m Classifier, x []float64) []float64 {
	switch m := m.(type) {
	case *Tree:
		return append([]float64(nil), m.root.navigate(x).Probs...)
	case *Forest:
		out := make([]float64, len(m.classes))
		idx := classIndex(m.classes)
		for _, t := range m.trees {
			aligned := make([]float64, len(m.classes))
			for i, p := range t.root.navigate(x).Probs {
				aligned[idx[t.classes[i]]] = p
			}
			for c, p := range aligned {
				out[c] += p
			}
		}
		inv := 1 / float64(len(m.trees))
		for c := range out {
			out[c] *= inv
		}
		return out
	case *GBDT:
		return pointerBoosted(m.boosters, len(m.classes), x)
	case *HistGBDT:
		return pointerBoosted(m.boosters, len(m.classes), x)
	}
	panic("pointerProba: unknown model")
}

func pointerBoosted(boosters []*booster, k int, x []float64) []float64 {
	margin := func(b *booster) float64 {
		s := b.Bias
		for _, t := range b.Trees {
			s += b.LR * t.navigate(x).Value
		}
		return s
	}
	out := make([]float64, k)
	if k == 2 {
		p := sigmoid(margin(boosters[0]))
		out[0], out[1] = 1-p, p
		return out
	}
	total := 0.0
	for a, b := range boosters {
		out[a] = sigmoid(margin(b))
		total += out[a]
	}
	for a := range out {
		if total > 0 {
			out[a] /= total
		} else {
			out[a] = 1 / float64(k)
		}
	}
	return out
}

// TestPredictProbaIntoMatchesAllModels asserts the serving entry point of
// every model is bitwise equal to PredictProba and to the pointer walk, on
// binary and multi-class data, and allocates nothing.
func TestPredictProbaIntoMatchesAllModels(t *testing.T) {
	binary, binTest := noisyBlobs(41, 2, 150)
	multi, multiTest := noisyBlobs(42, 3, 150)
	for _, data := range []struct {
		name        string
		train, test *Dataset
	}{{"binary", binary, binTest}, {"multiclass", multi, multiTest}} {
		for _, m := range fitAll(t, data.train, 0) {
			label := data.name + "/" + typeName(m)
			dst := make([]float64, len(m.Classes()))
			for _, x := range data.test.Features {
				m.PredictProbaInto(dst, x)
				proba, ref := m.PredictProba(x), pointerProba(m, x)
				for c := range dst {
					if dst[c] != proba[c] || dst[c] != ref[c] {
						t.Fatalf("%s: Into %v, PredictProba %v, pointer walk %v", label, dst, proba, ref)
					}
				}
			}
			x := data.test.Features[0]
			if n := testing.AllocsPerRun(100, func() { m.PredictProbaInto(dst, x) }); n != 0 {
				t.Fatalf("%s: PredictProbaInto allocates %v per call", label, n)
			}
		}
	}
}

// editForest saves a fitted forest, lets edit change its decoded payload,
// and returns the re-encoded model bytes.
func editForest(t *testing.T, edit func(p *forestPayload)) []byte {
	t.Helper()
	train, _ := noisyBlobs(43, 3, 90)
	f := NewForest(ForestConfig{NumTrees: 4, Seed: 1})
	if err := f.Fit(train); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, f); err != nil {
		t.Fatal(err)
	}
	var env envelope
	var p forestPayload
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(env.Payload, &p); err != nil {
		t.Fatal(err)
	}
	edit(&p)
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	env.Payload = raw
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLoadAlignsMemberClasses asserts a forest member whose class list is
// a strict subset of the forest's (a model written when members kept only
// their bag's classes) is scored with its probabilities in the right
// columns, bit-identical to the pointer walk.
func TestLoadAlignsMemberClasses(t *testing.T) {
	var dropLeading func(n *treeNode)
	dropLeading = func(n *treeNode) {
		if n.isLeaf() {
			n.Probs = n.Probs[1:]
			return
		}
		dropLeading(n.Left)
		dropLeading(n.Right)
	}
	raw := editForest(t, func(p *forestPayload) {
		p.TreeClasses[1] = p.TreeClasses[1][1:]
		dropLeading(p.Trees[1].Root)
	})
	m, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, test := noisyBlobs(43, 3, 90)
	dst := make([]float64, len(m.Classes()))
	for _, x := range test.Features {
		m.PredictProbaInto(dst, x)
		ref := pointerProba(m, x)
		for c := range dst {
			if dst[c] != ref[c] {
				t.Fatalf("Into %v, pointer walk %v", dst, ref)
			}
		}
	}
}

func firstLeaf(n *treeNode) *treeNode {
	for !n.isLeaf() {
		n = n.Left
	}
	return n
}

// TestLoadRefusesForeignMemberClass asserts a forest whose member class
// list carries a label the forest does not know is refused at load, not
// scored as class index 0.
func TestLoadRefusesForeignMemberClass(t *testing.T) {
	raw := editForest(t, func(p *forestPayload) { p.TreeClasses[2][1] = 42 })
	_, err := Load(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "class 42") {
		t.Fatalf("forest with a foreign member class: err = %v", err)
	}
}

// TestLoadRefusesLeafProbsLengthMismatch asserts a leaf whose probability
// count differs from its member's class count is refused at load, not a
// panic or a short read at predict time.
func TestLoadRefusesLeafProbsLengthMismatch(t *testing.T) {
	raw := editForest(t, func(p *forestPayload) {
		leaf := firstLeaf(p.Trees[1].Root)
		leaf.Probs = leaf.Probs[:len(leaf.Probs)-1]
	})
	_, err := Load(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "probabilities for 3 classes") {
		t.Fatalf("forest with a short leaf: err = %v", err)
	}
}

// TestLoadRefusesMalformedBoosters asserts a boosting model whose arm count
// does not match its classes is refused at load.
func TestLoadRefusesMalformedBoosters(t *testing.T) {
	train, _ := noisyBlobs(44, 3, 90)
	g := NewGBDT(GBDTConfig{Rounds: 3, Seed: 1})
	if err := g.Fit(train); err != nil {
		t.Fatal(err)
	}
	g.boosters = g.boosters[:2]
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "2 boosting arms for 3 classes") {
		t.Fatalf("gbdt with a missing arm: err = %v", err)
	}
}
