package rewrite

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dtds"
	"repro/internal/secview"
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

func hospitalView(t *testing.T) *secview.View {
	t.Helper()
	s, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": "1"})
	if err != nil {
		t.Fatal(err)
	}
	v, err := secview.Derive(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestRewriteCtxCutStoresNoPartialCell cuts one rewrite at every poll
// in turn. Each cut call returns the context's error, and the retry
// without a context prints exactly the plan an uncancelled rewriter
// builds: no cell of a cut call is memoized half-computed.
func TestRewriteCtxCutStoresNoPartialCell(t *testing.T) {
	v := hospitalView(t)
	var b strings.Builder
	for i := 0; i < 40; i++ {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, `//patient[.//bill = "y%d" or not(name)]/treatment//medication | dept/patientInfo/patient[wardNo]/name`, i)
	}
	p := xpath.MustParse(b.String())
	fresh, err := ForView(v)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	cuts := 0
	for k := 1; ; k++ {
		r, err := ForView(v)
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.RewriteCtx(&pollCtx{Context: context.Background(), k: k}, p)
		if err == nil {
			break // the build needs fewer than k polls
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("cut at poll %d: err = %v", k, err)
		}
		cuts++
		got, err := r.Rewrite(p)
		if err != nil {
			t.Fatal(err)
		}
		if xpath.String(got) != xpath.String(want) {
			t.Fatalf("retry after a cut at poll %d built a different plan", k)
		}
	}
	if cuts < 5 {
		t.Fatalf("the build polled only %d times; the query is too small to test cuts", cuts)
	}
}
