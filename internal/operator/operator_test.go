package operator

import (
	"testing"

	"repro/internal/tuple"
)

func tup(key uint64) tuple.Tuple { return tuple.Tuple{Key: key, Payload: []byte("abcdef")} }

func TestSelect(t *testing.T) {
	even := Select{Label: "even", Pred: func(t *tuple.Tuple) bool { return t.Key%2 == 0 }}
	if _, ok := even.Apply(tup(2)); !ok {
		t.Fatal("even key dropped")
	}
	if _, ok := even.Apply(tup(3)); ok {
		t.Fatal("odd key passed")
	}
	if even.Name() != "select(even)" {
		t.Fatalf("Name = %q", even.Name())
	}
	if (Select{}).Name() != "select" {
		t.Fatal("unlabeled name")
	}
	// Nil predicate passes everything.
	if _, ok := (Select{}).Apply(tup(1)); !ok {
		t.Fatal("nil predicate dropped")
	}
}

func TestProject(t *testing.T) {
	trunc := Project{Label: "head2", Map: func(t tuple.Tuple) tuple.Tuple {
		t.Payload = t.Payload[:2]
		return t
	}}
	out, ok := trunc.Apply(tup(1))
	if !ok || string(out.Payload) != "ab" {
		t.Fatalf("projected payload %q", out.Payload)
	}
	if trunc.Name() != "project(head2)" {
		t.Fatalf("Name = %q", trunc.Name())
	}
	// Nil map is identity.
	out, ok = (Project{}).Apply(tup(5))
	if !ok || out.Key != 5 {
		t.Fatal("nil map broke identity")
	}
}

func TestChain(t *testing.T) {
	c := Chain{
		Select{Label: "nonzero", Pred: func(t *tuple.Tuple) bool { return t.Key != 0 }},
		Project{Label: "double", Map: func(t tuple.Tuple) tuple.Tuple { t.Key *= 2; return t }},
		Select{Label: "small", Pred: func(t *tuple.Tuple) bool { return t.Key < 10 }},
	}
	out, ok := c.Apply(tup(3))
	if !ok || out.Key != 6 {
		t.Fatalf("chain output %v %v", out.Key, ok)
	}
	if _, ok := c.Apply(tup(0)); ok {
		t.Fatal("first select did not drop")
	}
	if _, ok := c.Apply(tup(7)); ok {
		t.Fatal("last select did not drop doubled key 14")
	}
	if c.Name() != "chain[select(nonzero) -> project(double) -> select(small)]" {
		t.Fatalf("Name = %q", c.Name())
	}
}
