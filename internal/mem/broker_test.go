package mem

import (
	"math"
	"sync"
	"testing"
)

func TestBrokerAccounting(t *testing.T) {
	b := NewBroker("root", 1000)
	r := b.Reserve("phase", 400)
	defer r.Release()
	if got := b.Used(); got != 400 {
		t.Fatalf("Used = %d, want 400", got)
	}
	if !r.Grow(500) {
		t.Fatal("Grow within budget returned false")
	}
	if got := b.Remaining(); got != 100 {
		t.Fatalf("Remaining = %d, want 100", got)
	}
	if r.Grow(200) {
		t.Fatal("Grow past the limit returned true")
	}
	if !b.OverBudget() {
		t.Fatal("broker not over budget after oversized grow")
	}
	// The charge is recorded even though it was over budget.
	if got := b.Used(); got != 1100 {
		t.Fatalf("Used = %d, want 1100 (truthful accounting)", got)
	}
	if got := b.Peak(); got != 1100 {
		t.Fatalf("Peak = %d, want 1100", got)
	}
	r.Shrink(600)
	if b.OverBudget() {
		t.Fatal("broker still over budget after shrink")
	}
	r.Release()
	if got := b.Used(); got != 0 {
		t.Fatalf("Used = %d after Release, want 0", got)
	}
	if got := b.Peak(); got != 1100 {
		t.Fatalf("Peak = %d after Release, want 1100 (peak is sticky)", got)
	}
}

func TestBrokerHierarchy(t *testing.T) {
	root := NewBroker("root", 2000)
	a := root.Child("a", 300)
	b := root.Child("b", 0) // bounded only by the root

	ra := a.Reserve("x", 200)
	rb := b.Reserve("y", 700)
	defer ra.Release()
	defer rb.Release()

	if got := root.Used(); got != 900 {
		t.Fatalf("root.Used = %d, want 900", got)
	}
	if got := a.Used(); got != 200 {
		t.Fatalf("a.Used = %d, want 200", got)
	}
	// a's own headroom is 100, tighter than the root's 1100.
	if got := a.Remaining(); got != 100 {
		t.Fatalf("a.Remaining = %d, want 100", got)
	}
	// b has no limit of its own; its headroom is the root's.
	if got := b.Remaining(); got != 1100 {
		t.Fatalf("b.Remaining = %d, want 1100", got)
	}
	// Growing a past its slice trips a but not the root (1050 < 2000).
	if ra.Grow(150) {
		t.Fatal("grow past child limit returned true")
	}
	if !a.OverBudget() || root.OverBudget() {
		t.Fatalf("OverBudget: a=%v root=%v, want true/false", a.OverBudget(), root.OverBudget())
	}
	// Growing b past the root trips both views (2150 > 2000).
	if rb.Grow(1100) {
		t.Fatal("grow past root limit returned true")
	}
	if !b.OverBudget() || !root.OverBudget() {
		t.Fatal("root over budget must be visible from every child")
	}
	ra.Release()
	rb.Release()
	if root.Used() != 0 || a.Used() != 0 || b.Used() != 0 {
		t.Fatalf("balances after release: root=%d a=%d b=%d, want all 0",
			root.Used(), a.Used(), b.Used())
	}
}

// TestBrokerPressureCallback pins what PressureEvents counts: a grow that
// ends over budget, and none within budget or after recovery.
func TestBrokerPressureCallback(t *testing.T) {
	b := NewBroker("root", 100)
	r := b.Reserve("x", 0)
	defer r.Release()
	r.Grow(90)
	if got := b.PressureEvents(); got != 0 {
		t.Fatalf("PressureEvents = %d within budget, want 0", got)
	}
	if r.Grow(20) {
		t.Fatal("a grow past the budget reported within budget")
	}
	if got := b.PressureEvents(); got != 1 {
		t.Fatalf("PressureEvents = %d, want 1", got)
	}
	// Shrinking back under budget silences further growth within budget.
	r.Shrink(30)
	r.Grow(10)
	if got := b.PressureEvents(); got != 1 {
		t.Fatalf("PressureEvents = %d after recovery, want 1", got)
	}
}

func TestBrokerSetTo(t *testing.T) {
	b := NewBroker("root", 100)
	r := b.Reserve("x", 0)
	defer r.Release()
	if !r.SetTo(60) {
		t.Fatal("SetTo within budget returned false")
	}
	if got := r.Bytes(); got != 60 {
		t.Fatalf("Bytes = %d, want 60", got)
	}
	if r.SetTo(150) {
		t.Fatal("SetTo past budget returned true")
	}
	if got := b.Used(); got != 150 {
		t.Fatalf("Used = %d, want 150", got)
	}
	if !r.SetTo(40) {
		t.Fatal("shrinking SetTo returned false")
	}
	if got := b.Used(); got != 40 {
		t.Fatalf("Used = %d, want 40", got)
	}
}

func TestBrokerNilNoOps(t *testing.T) {
	var b *Broker
	if b.OverBudget() || b.Used() != 0 || b.Peak() != 0 || b.Limit() != 0 {
		t.Fatal("nil broker reported non-zero state")
	}
	if got := b.Remaining(); got != math.MaxInt64 {
		t.Fatalf("nil broker Remaining = %d, want MaxInt64", got)
	}
	r := b.Reserve("x", 10)
	if r != nil {
		t.Fatal("nil broker returned a non-nil reservation")
	}
	if !r.Grow(5) || !r.SetTo(7) || r.Bytes() != 0 {
		t.Fatal("nil reservation is not a no-op")
	}
	r.Shrink(3)
	r.Release()

	// Child of nil is a usable root.
	c := b.Child("child", 50)
	if c == nil || c.Limit() != 50 {
		t.Fatal("Child on nil broker did not create a root")
	}
	cr := c.Reserve("y", 10)
	defer cr.Release()
	if c.Used() != 10 {
		t.Fatalf("child-of-nil Used = %d, want 10", c.Used())
	}
}

// TestBrokerConcurrent hammers one shared broker from many goroutines and
// checks the balance returns to zero and the peak is plausible. Run with
// -race this also proves the charge paths are data-race free.
func TestBrokerConcurrent(t *testing.T) {
	root := NewBroker("root", 1<<20)
	const workers = 8
	var pressures [workers]int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := root.Child("w", 1<<16)
			defer func() { pressures[w] = child.PressureEvents() }()
			res := child.Reserve("loop", 0)
			defer res.Release()
			for i := 0; i < 2000; i++ {
				res.Grow(1 << 10)
				if child.OverBudget() {
					res.Shrink(res.Bytes())
				}
			}
		}(w)
	}
	wg.Wait()
	if got := root.Used(); got != 0 {
		t.Fatalf("root balance = %d after all releases, want 0", got)
	}
	if root.Peak() <= 0 {
		t.Fatal("root peak never moved")
	}
	n := int64(0)
	for _, p := range pressures {
		n += p
	}
	if n == 0 {
		t.Fatal("no worker ever saw pressure despite tiny child budgets")
	}
}
