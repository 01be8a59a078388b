package xpath

import (
	"fmt"

	"repro/internal/xmltree"
)

// EvalIndexedAt evaluates at a set of context nodes through the index,
// the way a descendant step inside a plan reaches the posting lists.
func EvalIndexedAt(p Path, idx *Index, ctx []*xmltree.Node) ([]*xmltree.Node, error) {
	out, _, err := evalNodes(nil, p, ctx, idx)
	return out, err
}

// QualNodeLocal evaluates q at v the way the bitset evaluator does: QPath
// and QEq run the node-local existential walk. v must belong to a
// compacted document.
func QualNodeLocal(q Qual, v *xmltree.Node) (bool, error) {
	b, err := qualEvalAt(v)
	if err != nil {
		return false, err
	}
	defer b.release()
	return b.qual(q, v)
}

// QualSetAtATime evaluates q at v by materializing each top-level
// qualifier path as a bitset through pathAtNode and comparing string
// values with Text() — the set-at-a-time form the node-local walk
// replaced, kept as a differential oracle. Qualifiers nested inside
// those paths run through the production evaluator.
func QualSetAtATime(q Qual, v *xmltree.Node) (bool, error) {
	b, err := qualEvalAt(v)
	if err != nil {
		return false, err
	}
	defer b.release()
	return b.setQual(q, v)
}

func qualEvalAt(v *xmltree.Node) (*bitEval, error) {
	d := ordinalDoc([]*xmltree.Node{v})
	if d == nil {
		return nil, fmt.Errorf("node %s is not in a compacted document", v.Path())
	}
	return newBitEval(newSeqEval(nil), nil, d), nil
}

func (b *bitEval) setQual(q Qual, v *xmltree.Node) (bool, error) {
	switch q := q.(type) {
	case QPath:
		res, err := b.pathAtNode(q.Path, v)
		if err != nil {
			return false, err
		}
		hold := !res.Empty()
		b.recycle(res)
		return hold, nil
	case QEq:
		if q.Var != "" {
			return false, fmt.Errorf("unbound variable $%s in qualifier", q.Var)
		}
		res, err := b.pathAtNode(q.Path, v)
		if err != nil {
			return false, err
		}
		byOrd := b.doc.Nodes()
		hold := false
		res.ForEachUntil(func(ord int) bool {
			hold = byOrd[ord].Text() == q.Value
			return !hold
		})
		b.recycle(res)
		return hold, nil
	case QAnd:
		left, err := b.setQual(q.Left, v)
		if err != nil || !left {
			return false, err
		}
		return b.setQual(q.Right, v)
	case QOr:
		left, err := b.setQual(q.Left, v)
		if err != nil || left {
			return left, err
		}
		return b.setQual(q.Right, v)
	case QNot:
		hold, err := b.setQual(q.Sub, v)
		return !hold && err == nil, err
	default:
		return b.qual(q, v)
	}
}
