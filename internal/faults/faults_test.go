package faults

import (
	"errors"
	"testing"
	"time"
)

// cleanup disarms after each test so state never leaks across the package.
func cleanup(t *testing.T) {
	t.Helper()
	t.Cleanup(Disable)
}

func TestDisarmedCheckIsNil(t *testing.T) {
	cleanup(t)
	s := Register("test.disarmed")
	Disable()
	for i := 0; i < 10; i++ {
		if err := s.Check(); err != nil {
			t.Fatalf("disarmed Check returned %v", err)
		}
	}
}

func TestHitAddressedAllocFail(t *testing.T) {
	cleanup(t)
	s := Register("test.hit")
	Enable(Rule{Site: "test.hit", Action: AllocFail, Hit: 3})
	for i := 1; i <= 5; i++ {
		err := s.Check()
		if i == 3 && !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d: want ErrInjected, got %v", i, err)
		}
		if i != 3 && err != nil {
			t.Fatalf("hit %d: want nil, got %v", i, err)
		}
	}
}

func TestEnableResetsHitCounters(t *testing.T) {
	cleanup(t)
	s := Register("test.reset")
	Enable(Rule{Site: "test.reset", Action: AllocFail, Hit: 1})
	if err := s.Check(); !errors.Is(err, ErrInjected) {
		t.Fatalf("first arm, first hit: got %v", err)
	}
	// Re-arming must restart the count: the next first hit fires again.
	Enable(Rule{Site: "test.reset", Action: AllocFail, Hit: 1})
	if err := s.Check(); !errors.Is(err, ErrInjected) {
		t.Fatalf("second arm, first hit: got %v", err)
	}
}

func TestWildcardMatchesEverySite(t *testing.T) {
	cleanup(t)
	a := Register("test.wild.a")
	b := Register("test.wild.b")
	Enable(Rule{Site: "*", Action: AllocFail})
	if err := a.Check(); !errors.Is(err, ErrInjected) {
		t.Fatalf("site a: got %v", err)
	}
	if err := b.Check(); !errors.Is(err, ErrInjected) {
		t.Fatalf("site b: got %v", err)
	}
}

func TestPanicAction(t *testing.T) {
	cleanup(t)
	s := Register("test.panic")
	Enable(Rule{Site: "test.panic", Action: Panic, Hit: 1})
	defer func() {
		r := recover()
		ip, ok := r.(InjectedPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want InjectedPanic", r, r)
		}
		if ip.Site != "test.panic" {
			t.Fatalf("panic site = %q", ip.Site)
		}
	}()
	_ = s.Check() // the call must panic, not return
	t.Fatal("Check did not panic")
}

func TestDelayAction(t *testing.T) {
	cleanup(t)
	s := Register("test.delay")
	Enable(Rule{Site: "test.delay", Action: Delay, Delay: 20 * time.Millisecond})
	t0 := time.Now()
	if err := s.Check(); err != nil {
		t.Fatalf("delay Check returned %v", err)
	}
	if el := time.Since(t0); el < 15*time.Millisecond {
		t.Fatalf("delay too short: %v", el)
	}
}

func TestOneInIsDeterministic(t *testing.T) {
	cleanup(t)
	s := Register("test.onein")
	fire := func(seed int64) []int {
		EnableSeeded(seed, Rule{Site: "test.onein", Action: AllocFail, OneIn: 4})
		var hits []int
		for i := 1; i <= 64; i++ {
			if s.Check() != nil {
				hits = append(hits, i)
			}
		}
		return hits
	}
	a := fire(42)
	b := fire(42)
	if len(a) == 0 || len(a) == 64 {
		t.Fatalf("OneIn=4 fired %d/64 times; want a proper subset", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedules: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedules: %v vs %v", a, b)
		}
	}
	c := fire(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("seeds 42 and 43 produced identical schedules %v", a)
	}
}

func TestRegisterIsIdempotent(t *testing.T) {
	cleanup(t)
	a := Register("test.idem")
	b := Register("test.idem")
	if a != b {
		t.Fatal("Register returned distinct sites for one name")
	}
	found := false
	for _, n := range Sites() {
		if n == "test.idem" {
			found = true
		}
	}
	if !found {
		t.Fatal("Sites() does not list the registered site")
	}
}

func TestParseRules(t *testing.T) {
	seed, rules, err := ParseRules("seed=7;a.b:alloc@2;*:panic%100;x:delay:5ms")
	if err != nil {
		t.Fatal(err)
	}
	if seed != 7 {
		t.Fatalf("seed = %d", seed)
	}
	want := []Rule{
		{Site: "a.b", Action: AllocFail, Hit: 2},
		{Site: "*", Action: Panic, OneIn: 100},
		{Site: "x", Action: Delay, Delay: 5 * time.Millisecond},
	}
	if len(rules) != len(want) {
		t.Fatalf("got %d rules, want %d", len(rules), len(want))
	}
	for i := range want {
		if rules[i] != want[i] {
			t.Fatalf("rule %d = %+v, want %+v", i, rules[i], want[i])
		}
	}
	for _, bad := range []string{"x", "x:frobnicate", "x:alloc@0", "x:alloc:5ms", "x:delay:parsec", "seed=zebra"} {
		if _, _, err := ParseRules(bad); err == nil {
			t.Errorf("ParseRules(%q) accepted a malformed spec", bad)
		}
	}
}

func TestArmFromSpec(t *testing.T) {
	cleanup(t)
	s := Register("test.env")
	if err := ArmFromSpec("test.env:alloc@1"); err != nil {
		t.Fatal(err)
	}
	if !Armed() {
		t.Fatal("spec did not arm")
	}
	if err := s.Check(); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed spec: got %v", err)
	}
	if err := ArmFromSpec(""); err != nil {
		t.Fatal(err)
	}
	if Armed() {
		t.Fatal("empty spec did not disarm")
	}
}
