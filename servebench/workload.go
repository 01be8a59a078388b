package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"sync"

	"repro/internal/loadgen"
	"repro/internal/xmltree"
)

// The four workloads all serve the hospital nurse class (Example 3.1)
// over three wards, against documents from dtds.GenerateHospital with a
// fixed generator seed; the benchmark seed drives only the request
// sequence.
const (
	docSeed     = 1
	smallRepeat = 8  // 315 nodes
	largeRepeat = 48 // 10,254 nodes
	className   = "nurse"
)

var wards = []string{"1", "2", "3"}

// workload describes one traffic mix.
type workload struct {
	name string
	// repeat is GenerateHospital's branching bound: it fixes the
	// document size.
	repeat int
	// answerCache turns the engines' semantic answer cache on, as
	// svserve -anscache does.
	answerCache bool
	// prefix is the number of requests sent before the measured phase.
	// It fills the caches, and the retained heap is read after it, so
	// both commits of a comparison have served the identical sequence
	// when heap_live_mb is taken.
	prefix int
	// source builds the seeded request sequence against an oracle.
	source func(o *oracle, seed int64) (source, error)
}

var workloads = []*workload{
	{name: "hot-small", repeat: smallRepeat, prefix: 1000, source: hotSmall},
	{name: "scan-large", repeat: largeRepeat, prefix: 300, source: scanLarge},
	{name: "cold-plans", repeat: smallRepeat, prefix: 2000, source: coldPlans},
	{name: "zipf-contain", repeat: largeRepeat, answerCache: true, prefix: 3000, source: zipfContain},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// request is one /query call with the answer the oracle expects.
type request struct {
	ward string
	text string
	// path is the URL path and query string of the request.
	path string
	want *answer
}

func newRequest(ward, text string, want *answer) *request {
	v := url.Values{}
	v.Set("class", className)
	v.Set("q", text)
	v.Set("param", "wardNo="+ward)
	return &request{ward: ward, text: text, path: "/query?" + v.Encode(), want: want}
}

// source yields a workload's request sequence. The sequence is a pure
// function of the seed; which client sends which request depends on
// scheduling. Implementations are safe for concurrent use.
type source interface {
	next() *request
}

// weighted draws from a fixed population with fixed weights.
type weighted struct {
	mu   sync.Mutex
	rng  *rand.Rand
	reqs []*request
	cum  []float64
}

func newWeighted(seed int64, reqs []*request, weights []float64) *weighted {
	w := &weighted{rng: rand.New(rand.NewSource(seed)), reqs: reqs, cum: make([]float64, len(weights))}
	total := 0.0
	for i, x := range weights {
		total += x
		w.cum[i] = total
	}
	return w
}

func (w *weighted) next() *request {
	w.mu.Lock()
	x := w.rng.Float64() * w.cum[len(w.cum)-1]
	w.mu.Unlock()
	i := sort.SearchFloat64s(w.cum, x)
	if i == len(w.reqs) {
		i--
	}
	return w.reqs[i]
}

// fixedRequests resolves every (ward, text) pair through the oracle and
// rejects any with an empty answer: a query that selects nothing
// measures nothing.
func fixedRequests(o *oracle, pairs [][2]string) ([]*request, error) {
	reqs := make([]*request, len(pairs))
	for i, p := range pairs {
		a, err := o.answer(p[0], p[1])
		if err != nil {
			return nil, err
		}
		if len(a.nodes) == 0 {
			return nil, fmt.Errorf("query %q for ward %s has an empty oracle answer", p[1], p[0])
		}
		reqs[i] = newRequest(p[0], p[1], a)
	}
	return reqs, nil
}

// hotSmall is loadgen.HospitalMix, dealt at its weights, on the 315-node
// document: every plan and engine lookup hits, so a request is answer
// serialization, the handler and loopback TCP.
func hotSmall(o *oracle, seed int64) (source, error) {
	var pairs [][2]string
	var weights []int
	for _, e := range loadgen.HospitalMix() {
		pairs = append(pairs, [2]string{e.Params["wardNo"], e.Query})
		weights = append(weights, e.Weight)
	}
	reqs, err := fixedRequests(o, pairs)
	if err != nil {
		return nil, err
	}
	return newDeck(seed, reqs, weights), nil
}

// deck deals a fixed population in shuffled rounds. A round holds each
// request as many times as its weight, so every stretch of a run has
// the mix's exact shares and seeds differ only in the order.
type deck struct {
	mu    sync.Mutex
	rng   *rand.Rand
	round []*request
	pos   int
}

func newDeck(seed int64, reqs []*request, weights []int) *deck {
	d := &deck{rng: rand.New(rand.NewSource(seed))}
	for i, r := range reqs {
		for k := 0; k < weights[i]; k++ {
			d.round = append(d.round, r)
		}
	}
	return d
}

func (d *deck) next() *request {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pos == 0 {
		d.rng.Shuffle(len(d.round), func(i, j int) { d.round[i], d.round[j] = d.round[j], d.round[i] })
	}
	r := d.round[d.pos]
	d.pos = (d.pos + 1) % len(d.round)
	return r
}

// patientFacts is one patient of a ward's view, read off the oracle's
// materialized view so every constant below occurs in what the ward
// may see.
type patientFacts struct {
	name, ward, medication, bill string
}

func (o *oracle) patients(ward string) []patientFacts {
	var out []patientFacts
	o.views[ward].View.Root.Walk(func(n *xmltree.Node) bool {
		if n.Label != "patient" {
			return true
		}
		var f patientFacts
		n.Walk(func(c *xmltree.Node) bool {
			switch c.Label {
			case "name":
				f.name = c.Text()
			case "wardNo":
				f.ward = c.Text()
			case "medication":
				f.medication = c.Text()
			case "bill":
				f.bill = c.Text()
			}
			return true
		})
		out = append(out, f)
		return false
	})
	return out
}

// staffNames returns the ward's visible nurse or doctor names in
// document order.
func (o *oracle) staffNames(ward, role string) []string {
	var out []string
	o.views[ward].View.Root.Walk(func(n *xmltree.Node) bool {
		if n.Label == role {
			for _, c := range n.ElementChildren() {
				if c.Label == "name" {
					out = append(out, c.Text())
				}
			}
			return false
		}
		return true
	})
	return out
}

func quote(v string) string { return `"` + v + `"` }

// scanLarge is twelve selective descendant and qualifier queries per
// ward on the 10,254-node document, dealt in equal shares. Each answers with
// a handful of nodes, so evaluation, not serialization, is the request.
// The constants are picked by position from the ward's view, which is
// fixed, so the query set does not depend on the seed.
func scanLarge(o *oracle, seed int64) (source, error) {
	var pairs [][2]string
	for _, ward := range wards {
		ps := o.patients(ward)
		// at returns the first patient from position k/16 of the view
		// on that has a medication, so medication constants are never
		// empty.
		at := func(k int) patientFacts {
			for i := k * len(ps) / 16; i < len(ps); i++ {
				if ps[i].medication != "" {
					return ps[i]
				}
			}
			return ps[0]
		}
		var noMed, withMed patientFacts
		for _, p := range ps {
			if p.medication == "" && noMed.name == "" {
				noMed = p
			}
			if p.medication != "" && p.ward == ward && withMed.name == "" {
				withMed = p
			}
		}
		nurses, doctors := o.staffNames(ward, "nurse"), o.staffNames(ward, "doctor")
		if len(nurses) == 0 || len(doctors) == 0 || noMed.name == "" || withMed.name == "" {
			return nil, fmt.Errorf("scan-large: ward %s view lacks the facts its queries need", ward)
		}
		texts := []string{
			`//patient[treatment//medication = ` + quote(at(1).medication) + `]/name`,
			`//patient[name = ` + quote(at(2).name) + `]/treatment//bill`,
			`//patient[.//bill = ` + quote(at(3).bill) + `]/wardNo`,
			`//dept//patient[name = ` + quote(at(4).name) + `]/wardNo`,
			`//patientInfo/patient[treatment//bill = ` + quote(at(5).bill) + ` or name = ` + quote(at(6).name) + `]/name`,
			`//staff[nurse/name = ` + quote(nurses[len(nurses)/2]) + `]/nurse/name`,
			`//staff[doctor/name = ` + quote(doctors[len(doctors)/2]) + `]/doctor/name`,
			`//patient[name = ` + quote(at(7).name) + `]//medication`,
			`//patient[not(treatment//medication) and name = ` + quote(noMed.name) + `]/name`,
			`//patient[treatment//medication = ` + quote(withMed.medication) + ` and name = ` + quote(withMed.name) + `]/wardNo`,
			`//dept//patient[wardNo = ` + quote(withMed.ward) + ` and treatment//medication = ` + quote(withMed.medication) + `]/name`,
			`//patient[name = ` + quote(at(9).name) + ` or name = ` + quote(at(11).name) + `]/treatment//medication`,
		}
		for _, t := range texts {
			pairs = append(pairs, [2]string{ward, t})
		}
	}
	reqs, err := fixedRequests(o, pairs)
	if err != nil {
		return nil, err
	}
	weights := make([]int, len(reqs))
	for i := range weights {
		weights[i] = 1
	}
	return newDeck(seed, reqs, weights), nil
}

// The cold-plans branches: a patient-selecting prefix, a qualifier that
// is one or a disjunction of two selective comparisons, and a tail.
// Two-comparison disjunctions make the branch space far larger than any
// run draws from (about 10^5 branches per ward), so each request brings
// mostly new subqueries to the rewrite and optimize memos.
var (
	coldPrefixes = []string{`//patient`, `//dept//patient`, `//patientInfo/patient`, `//dept/patientInfo/patient`, `dept/patientInfo/patient`, `dept//patient`}
	coldTails    = []string{`/name`, `/wardNo`, `/treatment//bill`, `//bill`, `//medication`}
)

// cold draws requests whose texts never repeat: a union of one to four
// branches of one ward, each P[Q1] T or P[Q1 or Q2] T, with the
// comparisons and the branches in a canonical order so that no two
// requests are the same set. The plan cache never hits.
type cold struct {
	mu   sync.Mutex
	rng  *rand.Rand
	o    *oracle
	seen map[string]bool
	// quals are the ward's comparisons; atoms[ward][p][q][t] is the
	// oracle answer of prefix p, qualifier q and tail t.
	quals map[string][]string
	atoms map[string][][][][]*xmltree.Node
}

// coldPlans is the cold-plans workload on the 315-node document. The
// comparisons use the ward's visible patient names, medications and
// bills. Expected answers are composed from single-comparison answers
// computed at set-up: p[q1 or q2]/t selects p[q1]/t ∪ p[q2]/t, and a
// union selects the union of its branches (XPath 1.0 §2.4 and §3.3).
func coldPlans(o *oracle, seed int64) (source, error) {
	c := &cold{rng: rand.New(rand.NewSource(seed)), o: o, seen: map[string]bool{},
		quals: map[string][]string{}, atoms: map[string][][][][]*xmltree.Node{}}
	for _, ward := range wards {
		seen := map[string]bool{}
		add := func(q string) {
			if !seen[q] {
				seen[q] = true
				c.quals[ward] = append(c.quals[ward], q)
			}
		}
		for _, p := range o.patients(ward) {
			add(`name = ` + quote(p.name))
			add(`.//bill = ` + quote(p.bill))
			if p.medication != "" {
				add(`treatment//medication = ` + quote(p.medication))
			}
		}
		byPrefix := make([][][][]*xmltree.Node, len(coldPrefixes))
		for pi, prefix := range coldPrefixes {
			byPrefix[pi] = make([][][]*xmltree.Node, len(c.quals[ward]))
			for qi, q := range c.quals[ward] {
				byPrefix[pi][qi] = make([][]*xmltree.Node, len(coldTails))
				for ti, tail := range coldTails {
					nodes, err := o.eval(ward, prefix+"["+q+"]"+tail)
					if err != nil {
						return nil, err
					}
					byPrefix[pi][qi][ti] = nodes
				}
			}
		}
		c.atoms[ward] = byPrefix
	}
	return c, nil
}

func (c *cold) next() *request {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		ward := wards[c.rng.Intn(len(wards))]
		quals, atoms := c.quals[ward], c.atoms[ward]
		k := 1 + c.rng.Intn(4)
		branches := map[string][]*xmltree.Node{}
		for len(branches) < k {
			pi, ti := c.rng.Intn(len(coldPrefixes)), c.rng.Intn(len(coldTails))
			qs := []int{c.rng.Intn(len(quals))}
			if c.rng.Intn(2) == 0 {
				qs = append(qs, c.rng.Intn(len(quals)))
			}
			sort.Ints(qs)
			if len(qs) == 2 && qs[0] == qs[1] {
				qs = qs[:1]
			}
			var conds []string
			var nodes []*xmltree.Node
			for _, qi := range qs {
				conds = append(conds, quals[qi])
				nodes = append(nodes, atoms[pi][qi][ti]...)
			}
			// Keep branches selective but never empty.
			if len(nodes) > 0 {
				branches[coldPrefixes[pi]+"["+strings.Join(conds, " or ")+"]"+coldTails[ti]] = nodes
			}
		}
		texts := make([]string, 0, k)
		for t := range branches {
			texts = append(texts, t)
		}
		sort.Strings(texts)
		var nodes []*xmltree.Node
		for _, t := range texts {
			nodes = append(nodes, branches[t]...)
		}
		text := strings.Join(texts, " | ")
		if c.seen[text] {
			continue
		}
		c.seen[text] = true
		return newRequest(ward, text, c.o.answerOf(xmltree.SortDocOrder(nodes)))
	}
}

// The zipf-contain population: per ward, restrictions of the broad base
// by patient name plus medication lookups, together more texts than the
// per-engine plan cache (512) and answer cache (256) hold.
const (
	zipfNames      = 450
	zipfMedicines  = 250
	zipfExponent   = 1.0
	zipfBaseEvery  = 50 // the base is 2% of requests
	zipfBaseQuery  = `//dept//patient`
	zipfNameFormat = `//patient[name = %s]`
	zipfMedFormat  = `//patient[treatment//medication = %s]/name`
)

// zipfContain is the zipf-contain workload on the 10,254-node document
// with the answer cache on. Popularity is Zipf-skewed over a seeded
// ranking of the population. The broad base //dept//patient, every
// 50th request, makes the name restrictions containment hits while it is
// cached; the popular head is equal hits; the tail misses and pays the
// containment-proof scan before evaluating.
func zipfContain(o *oracle, seed int64) (source, error) {
	var pairs [][2]string
	for _, ward := range wards {
		names, meds := map[string]bool{}, map[string]bool{}
		for _, p := range o.patients(ward) {
			if len(names) < zipfNames && !names[p.name] {
				names[p.name] = true
				pairs = append(pairs, [2]string{ward, fmt.Sprintf(zipfNameFormat, quote(p.name))})
			}
			if p.medication != "" && len(meds) < zipfMedicines && !meds[p.medication] {
				meds[p.medication] = true
				pairs = append(pairs, [2]string{ward, fmt.Sprintf(zipfMedFormat, quote(p.medication))})
			}
		}
		if len(names) < zipfNames || len(meds) < zipfMedicines {
			return nil, fmt.Errorf("zipf-contain: ward %s has %d names and %d medications, want %d and %d",
				ward, len(names), len(meds), zipfNames, zipfMedicines)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	weights := make([]float64, len(pairs))
	for r := range weights {
		weights[r] = 1 / math.Pow(float64(r+1), zipfExponent)
	}
	reqs, err := fixedRequests(o, pairs)
	if err != nil {
		return nil, err
	}
	var bases [][2]string
	for _, ward := range wards {
		bases = append(bases, [2]string{ward, zipfBaseQuery})
	}
	baseReqs, err := fixedRequests(o, bases)
	if err != nil {
		return nil, err
	}
	return &periodic{inner: newWeighted(rng.Int63(), reqs, weights), every: zipfBaseEvery, fixed: baseReqs}, nil
}

// periodic sends the next of its fixed requests, in turn, as every
// every-th request and draws the rest from inner. A fixed share of the
// base keeps its large answers from swinging bytes and latency between
// seeds the way a random 2% draw would.
type periodic struct {
	inner *weighted
	every int
	fixed []*request

	mu sync.Mutex
	n  int
}

func (p *periodic) next() *request {
	p.mu.Lock()
	p.n++
	n := p.n
	p.mu.Unlock()
	if n%p.every == 0 {
		return p.fixed[(n/p.every)%len(p.fixed)]
	}
	return p.inner.next()
}
