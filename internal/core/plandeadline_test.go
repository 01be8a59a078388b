package core

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

// wideUnion is the n-way union of //patient[.//bill]//name; with
// distinct set, each branch compares the bill with its own constant, so
// no two branches share a plan.
func wideUnion(n int, distinct bool) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" | ")
		}
		if distinct {
			fmt.Fprintf(&b, `//patient[.//bill = "y%d"]//name`, i)
		} else {
			b.WriteString(`//patient[.//bill]//name`)
		}
	}
	return b.String()
}

// TestPlanBuildHonorsDeadline: rewrite and optimize poll the request
// context, so a plan build that cannot finish returns
// context.DeadlineExceeded within xpath.PlanGrace plus a small slack of
// the deadline, instead of running to completion first. A cut-short
// build memoizes no partial cell: the retry, without a deadline, prints
// the same plans as an uncancelled build on a fresh engine.
func TestPlanBuildHonorsDeadline(t *testing.T) {
	const deadline = 20 * time.Millisecond
	slack := 100 * time.Millisecond
	if raceEnabled {
		slack *= 5
	}
	doc := dtds.GenerateHospital(3, 3)
	for _, tc := range []struct {
		name string
		n    int
		// mustCut: the uncancelled build takes far longer than the
		// deadline plus the grace, so the deadline must cut it.
		mustCut bool
	}{
		// The identical-branch union used to take 381 ms to rewrite
		// (whole-subtree memo keys); it now builds in a few
		// milliseconds and may well beat the deadline.
		{"identical", 999, false},
		{"distinct", 999, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := xpath.MustParse(wideUnion(tc.n, tc.mustCut))
			e := nurseEngine(t, "1")
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			start := time.Now()
			_, err := e.QueryCtx(ctx, doc, p)
			elapsed := time.Since(start)
			if err != nil && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want nil or context.DeadlineExceeded", err)
			}
			if tc.mustCut && err == nil {
				t.Fatalf("%d-way union finished within %v; want context.DeadlineExceeded", tc.n, elapsed)
			}
			t.Logf("returned after %v (err %v)", elapsed, err)
			if limit := deadline + xpath.PlanGrace + slack; elapsed > limit {
				t.Errorf("call returned after %v, want within %v", elapsed, limit)
			}

			got, err := e.Prepare(p)
			if err != nil {
				t.Fatalf("retry: %v", err)
			}
			want, err := nurseEngine(t, "1").Prepare(p)
			if err != nil {
				t.Fatalf("fresh engine: %v", err)
			}
			if xpath.String(got.Rewritten) != xpath.String(want.Rewritten) || xpath.String(got.Optimized) != xpath.String(want.Optimized) {
				t.Errorf("retry after the deadline built a different plan than a fresh engine")
			}
		})
	}
}
