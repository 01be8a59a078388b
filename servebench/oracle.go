package main

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/dtds"
	"repro/internal/policy"
	"repro/internal/secview"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// oracle holds the expected answers of the paper's §3.3 semantics: a
// query over the materialized view T_v, mapped back to the document
// nodes it exposes. It shares with the serving path only view
// derivation and Node.String, which renders the expected bodies: no
// rewriting, no optimization, no plan or answer cache, no index, and the
// materialized view is not compacted, so EvalDoc takes the plain walk
// rather than the bitset evaluator.
type oracle struct {
	doc   *xmltree.Document
	views map[string]*secview.Materialized

	mu sync.Mutex
	// text caches the serialization of every document node an expected
	// answer holds.
	text map[*xmltree.Node]string
}

func newOracle(doc *xmltree.Document) (*oracle, error) {
	reg := policy.NewRegistry(dtds.Hospital())
	class, err := reg.Define(className, dtds.NurseSpecSource)
	if err != nil {
		return nil, err
	}
	o := &oracle{doc: doc, views: map[string]*secview.Materialized{}, text: map[*xmltree.Node]string{}}
	for _, ward := range wards {
		e, err := class.Engine(map[string]string{"wardNo": ward})
		if err != nil {
			return nil, err
		}
		m, err := e.Materialize(doc)
		if err != nil {
			return nil, fmt.Errorf("materialize ward %s: %w", ward, err)
		}
		o.views[ward] = m
	}
	return o, nil
}

// eval answers one view query for a ward: evaluate it over T_v with
// the plain reference walk, then map each view node to its document
// node.
func (o *oracle) eval(ward, text string) ([]*xmltree.Node, error) {
	p, err := xpath.Parse(text)
	if err != nil {
		return nil, err
	}
	m := o.views[ward]
	vs, err := xpath.EvalDocErr(p, m.View)
	if err != nil {
		return nil, err
	}
	out := make([]*xmltree.Node, len(vs))
	for i, v := range vs {
		d, ok := m.DocOf[v]
		if !ok {
			return nil, fmt.Errorf("view node %s of %q has no document node", v.Path(), text)
		}
		out[i] = d
	}
	return xmltree.SortDocOrder(out), nil
}

func (o *oracle) answer(ward, text string) (*answer, error) {
	nodes, err := o.eval(ward, text)
	if err != nil {
		return nil, err
	}
	return o.answerOf(nodes), nil
}

// answer is an expected /query result.
type answer struct {
	// nodes are document nodes in document order.
	nodes []*xmltree.Node
	// body is the response body the server must send for them.
	body []byte
}

// answerOf renders the response body of a node list: serve's /query
// envelope, <result count="N">, around each node's serialization.
func (o *oracle) answerOf(nodes []*xmltree.Node) *answer {
	var b bytes.Buffer
	b.WriteString(`<result count="`)
	b.WriteString(strconv.Itoa(len(nodes)))
	b.WriteString("\">\n")
	o.mu.Lock()
	for _, n := range nodes {
		s, ok := o.text[n]
		if !ok {
			s = n.String()
			o.text[n] = s
		}
		b.WriteString(s)
	}
	o.mu.Unlock()
	b.WriteString("</result>\n")
	return &answer{nodes: nodes, body: b.Bytes()}
}

// matches reports whether a response carries exactly the expected
// answer.
func (a *answer) matches(status int, body []byte) bool {
	return status == 200 && bytes.Equal(body, a.body)
}

// sameNodes reports whether an evaluator result is the expected node
// list.
func (a *answer) sameNodes(nodes []*xmltree.Node) bool {
	if len(nodes) != len(a.nodes) {
		return false
	}
	for i, n := range nodes {
		if n != a.nodes[i] {
			return false
		}
	}
	return true
}
