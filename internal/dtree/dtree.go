// Package dtree implements the CART-style decision-tree classifier that KML
// supports alongside neural networks ("KML currently supports neural
// networks and decision trees", §4). The paper trained a readahead decision
// tree as an alternative model family; the reproduction does the same and
// compares the two in the Table-2 harness.
//
// Trees are trained with recursive greedy Gini-impurity splits, bounded by
// depth and minimum leaf size, and serialize to a compact binary format so
// they can be "deployed to the kernel" through the same save/load workflow
// as neural networks.
package dtree

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/wire"
)

// Options configures training.
type Options struct {
	// MaxDepth bounds the tree height; 0 means the package default (8).
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf; 0 means 2.
	MinLeaf int
}

func (o Options) withDefaults() Options {
	if o.MaxDepth == 0 {
		o.MaxDepth = 8
	}
	if o.MinLeaf == 0 {
		o.MinLeaf = 2
	}
	return o
}

// Tree is a trained decision-tree classifier.
type Tree struct {
	root     *node
	features int
	classes  int
	nodes    int
}

type node struct {
	// Internal nodes route on feature ≤ threshold.
	feature   int
	threshold float64
	left      *node
	right     *node
	// Leaves predict class with the stored empirical distribution.
	leaf  bool
	class int
	probs []float64
}

// Train fits a tree on X (samples × features) and labels y in [0, classes).
func Train(x [][]float64, y []int, classes int, opts Options) (*Tree, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("dtree: %d samples, %d labels", len(x), len(y))
	}
	if classes < 2 {
		return nil, errors.New("dtree: need at least 2 classes")
	}
	nf := len(x[0])
	for i, row := range x {
		if len(row) != nf {
			return nil, fmt.Errorf("dtree: sample %d has %d features, want %d", i, len(row), nf)
		}
	}
	for i, label := range y {
		if label < 0 || label >= classes {
			return nil, fmt.Errorf("dtree: label %d out of range at sample %d", label, i)
		}
	}
	opts = opts.withDefaults()
	t := &Tree{features: nf, classes: classes}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(x, y, idx, opts, 0)
	return t, nil
}

func (t *Tree) build(x [][]float64, y []int, idx []int, opts Options, depth int) *node {
	t.nodes++
	counts := make([]float64, t.classes)
	for _, i := range idx {
		counts[y[i]]++
	}
	n := float64(len(idx))
	majority, pure := 0, true
	for c := 1; c < t.classes; c++ {
		if counts[c] > counts[majority] {
			majority = c
		}
	}
	for c := range counts {
		if counts[c] != 0 && c != majority {
			pure = false
		}
	}
	makeLeaf := func() *node {
		probs := make([]float64, t.classes)
		for c := range counts {
			probs[c] = counts[c] / n
		}
		return &node{leaf: true, class: majority, probs: probs}
	}
	if pure || depth >= opts.MaxDepth || len(idx) < 2*opts.MinLeaf {
		return makeLeaf()
	}
	feature, threshold, gain := t.bestSplit(x, y, idx, counts, opts)
	if gain <= 1e-12 {
		return makeLeaf()
	}
	var left, right []int
	for _, i := range idx {
		if x[i][feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < opts.MinLeaf || len(right) < opts.MinLeaf {
		return makeLeaf()
	}
	nd := &node{feature: feature, threshold: threshold}
	nd.left = t.build(x, y, left, opts, depth+1)
	nd.right = t.build(x, y, right, opts, depth+1)
	return nd
}

// bestSplit finds the (feature, threshold) minimizing weighted Gini impurity.
func (t *Tree) bestSplit(x [][]float64, y []int, idx []int, counts []float64, opts Options) (int, float64, float64) {
	n := float64(len(idx))
	parentGini := gini(counts, n)
	bestGain := 0.0
	bestFeature, bestThreshold := -1, 0.0

	order := make([]int, len(idx))
	leftCounts := make([]float64, t.classes)
	rightCounts := make([]float64, t.classes)

	for f := 0; f < t.features; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return x[order[a]][f] < x[order[b]][f] })
		for c := range leftCounts {
			leftCounts[c] = 0
			rightCounts[c] = counts[c]
		}
		for split := 1; split < len(order); split++ {
			c := y[order[split-1]]
			leftCounts[c]++
			rightCounts[c]--
			prev, cur := x[order[split-1]][f], x[order[split]][f]
			if prev == cur {
				continue // cannot split between equal values
			}
			nl, nr := float64(split), n-float64(split)
			if int(nl) < opts.MinLeaf || int(nr) < opts.MinLeaf {
				continue
			}
			g := parentGini - (nl*gini(leftCounts, nl)+nr*gini(rightCounts, nr))/n
			if g > bestGain {
				bestGain = g
				bestFeature = f
				bestThreshold = prev + (cur-prev)/2
			}
		}
	}
	return bestFeature, bestThreshold, bestGain
}

// gini returns the Gini impurity 1 − Σ p².
func gini(counts []float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	s := 0.0
	for _, c := range counts {
		p := c / n
		s += p * p
	}
	return 1 - s
}

// Predict returns the predicted class for one sample. Traversal reads the
// tree and writes nothing, so one Tree serves any number of goroutines.
//
//kml:hotpath
func (t *Tree) Predict(features []float64) int {
	return t.leafFor(features).class
}

//kml:hotpath
func (t *Tree) leafFor(features []float64) *node {
	if len(features) != t.features {
		panic(fmt.Sprintf("dtree: got %d features, want %d", len(features), t.features))
	}
	nd := t.root
	for !nd.leaf {
		if features[nd.feature] <= nd.threshold {
			nd = nd.left
		} else {
			nd = nd.right
		}
	}
	return nd
}

// Features returns the expected feature count.
func (t *Tree) Features() int { return t.features }

// Classes returns the number of classes.
func (t *Tree) Classes() int { return t.classes }

// Nodes returns the total node count (internal + leaves).
func (t *Tree) Nodes() int { return t.nodes }

// Depth returns the height of the tree (a lone leaf has depth 0).
func (t *Tree) Depth() int { return depthOf(t.root) }

func depthOf(nd *node) int {
	if nd == nil || nd.leaf {
		return 0
	}
	l, r := depthOf(nd.left), depthOf(nd.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Serialization: the tree file (treeLayout) moves trees through the same
// save/load workflow as the nn model format.
const (
	treeMagic   = 0x544c4d4b // "KMLT" little-endian
	treeVersion = 1
	maxNodes    = 1 << 24
)

// ErrBadTree reports a corrupt or incompatible tree file.
var ErrBadTree = errors.New("dtree: bad tree file")

// treeLayout is the tree file, little-endian:
//
//	magic    u32   "KMLT"
//	version  u32   (1)
//	features u32   (≥ 1)
//	classes  u32   (≥ 2)
//	nodes    u32   (1..2^24), then the nodes in preorder (nodeLayout)
//	crc32    u32   (IEEE, over everything before it)
func treeLayout(c *wire.Codec, t *Tree) {
	start := c.Mark()
	magic, version := uint32(treeMagic), uint32(treeVersion)
	features, classes, nodes := uint32(t.features), uint32(t.classes), uint32(t.nodes)
	for _, v := range []*uint32{&magic, &version, &features, &classes, &nodes} {
		c.U32(v)
	}
	c.Check(magic == treeMagic && version == treeVersion &&
		features > 0 && classes >= 2 && nodes > 0 && nodes <= maxNodes)
	if c.Decoding() {
		*t = Tree{features: int(features), classes: int(classes), nodes: int(nodes)}
		t.root = new(node)
	}
	left := t.nodes
	nodeLayout(c, t, t.root, &left)
	c.Check(left == 0)
	c.CRC32(start)
}

// nodeLayout is one node and, for a split, its subtrees: a leaf is
// kind u8 (1), class u32 (< classes), probs (classes f64); a split is
// kind u8 (0), feature u32 (< features), threshold f64, left, right. left
// counts down the nodes the header declared, bounding the walk.
func nodeLayout(c *wire.Codec, t *Tree, nd *node, left *int) {
	if !c.Check(*left > 0) {
		return
	}
	*left--
	var kind uint8
	if nd.leaf {
		kind = 1
	}
	c.U8(&kind)
	switch {
	case !c.Check(kind <= 1):
	case kind == 1:
		class := uint32(nd.class)
		c.U32(&class)
		if !c.Check(class < uint32(t.classes)) || !c.Fits(8*uint64(t.classes)) {
			return
		}
		if c.Decoding() {
			*nd = node{leaf: true, class: int(class), probs: make([]float64, t.classes)}
		}
		c.F64s(nd.probs)
	default:
		feature, threshold := uint32(nd.feature), math.Float64bits(nd.threshold)
		c.U32(&feature)
		c.U64(&threshold)
		if !c.Check(feature < uint32(t.features)) {
			return
		}
		if c.Decoding() {
			*nd = node{feature: int(feature), threshold: math.Float64frombits(threshold), left: new(node), right: new(node)}
		}
		nodeLayout(c, t, nd.left, left)
		nodeLayout(c, t, nd.right, left)
	}
}

// Save writes the tree in KML's binary tree format.
func (t *Tree) Save(w io.Writer) error {
	_, err := w.Write(wire.Append(nil, *t, treeLayout))
	return err
}

// Load reads a tree saved with Save. Like a reader that stops at the
// checksum, it ignores anything after it.
func Load(r io.Reader) (*Tree, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTree, err)
	}
	t := new(Tree)
	var rest []byte
	c := wire.Decoder(data)
	treeLayout(&c, t)
	c.Tail(&rest)
	if err := c.End(ErrBadTree); err != nil {
		return nil, err
	}
	return t, nil
}
