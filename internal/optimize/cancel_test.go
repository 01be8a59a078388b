package optimize

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dtds"
	"repro/internal/xpath"
)

// pollCtx cuts a plan build at a chosen context poll: its deadline is
// long past, so the DP's grace has run out, but it reports itself done
// only from its k-th Err call on.
type pollCtx struct {
	context.Context
	k int
}

func (c *pollCtx) Deadline() (time.Time, bool) { return time.Unix(0, 0), true }

func (c *pollCtx) Err() error {
	if c.k--; c.k <= 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestOptimizeCtxCutStoresNoPartialCell cuts one optimization at every
// poll in turn: each cut call returns the context's error, and the
// retry without a context prints exactly the plan an uncancelled
// optimizer builds.
func TestOptimizeCtxCutStoresNoPartialCell(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 30; i++ {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, `dept/patientInfo/patient[name = "x%d" or treatment/regular/bill]//medication | //patient[wardNo]/treatment/*/bill`, i)
	}
	p := xpath.MustParse(b.String())
	want := New(dtds.Hospital()).Optimize(p)
	cuts := 0
	for k := 1; ; k++ {
		o := New(dtds.Hospital())
		_, err := o.OptimizeCtx(&pollCtx{Context: context.Background(), k: k}, p)
		if err == nil {
			break
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("cut at poll %d: err = %v", k, err)
		}
		cuts++
		if got := o.Optimize(p); xpath.String(got) != xpath.String(want) {
			t.Fatalf("retry after a cut at poll %d built a different plan", k)
		}
	}
	if cuts < 5 {
		t.Fatalf("the build polled only %d times; the query is too small to test cuts", cuts)
	}
}
