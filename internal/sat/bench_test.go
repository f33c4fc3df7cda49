package sat

import (
	"math/rand"
	"testing"
)

// buildPHP builds the pigeonhole principle instance PHP(p, h).
func buildPHP(p, h int) *Solver {
	s := New()
	for i := 0; i < p*h; i++ {
		s.NewVar()
	}
	v := func(pi, hi int) Lit { return MkLit(Var(pi*h+hi), false) }
	for pi := 0; pi < p; pi++ {
		var c []Lit
		for hi := 0; hi < h; hi++ {
			c = append(c, v(pi, hi))
		}
		s.AddClause(c...)
	}
	for hi := 0; hi < h; hi++ {
		for p1 := 0; p1 < p; p1++ {
			for p2 := p1 + 1; p2 < p; p2++ {
				s.AddClause(v(p1, hi).Not(), v(p2, hi).Not())
			}
		}
	}
	return s
}

func BenchmarkPigeonhole7x6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := buildPHP(7, 6)
		st, err := s.Solve(Options{})
		if err != nil || st != Unsat {
			b.Fatalf("got %v %v", st, err)
		}
	}
}

// mulMiterCNF is a width-w multiplier commutativity miter in Tseitin
// CNF: two shift-and-add multipliers compute a·b and b·a (mod 2^w) and
// a final clause demands that some output bit differs. It is
// unsatisfiable, and the search is dominated by unit propagation
// through the adder chains, like the bit-blasted synthesis queries.
func mulMiterCNF(w int) *cnf {
	c := &cnf{name: "mul-miter"}
	fresh := func() Lit { c.nvars++; return MkLit(Var(c.nvars-1), false) }
	add := func(ls ...Lit) { c.clause = append(c.clause, ls) }
	and := func(x, y Lit) Lit {
		o := fresh()
		add(o.Not(), x)
		add(o.Not(), y)
		add(o, x.Not(), y.Not())
		return o
	}
	or := func(x, y Lit) Lit {
		o := fresh()
		add(o, x.Not())
		add(o, y.Not())
		add(o.Not(), x, y)
		return o
	}
	xor := func(x, y Lit) Lit {
		o := fresh()
		add(o.Not(), x, y)
		add(o.Not(), x.Not(), y.Not())
		add(o, x.Not(), y)
		add(o, x, y.Not())
		return o
	}
	mul := func(x, y []Lit) []Lit {
		acc := make([]Lit, w)
		for j := range acc {
			acc[j] = and(x[j], y[0])
		}
		for i := 1; i < w; i++ {
			var carry Lit
			for j := i; j < w; j++ {
				pp := and(x[j-i], y[i])
				sum := xor(acc[j], pp)
				if j == i {
					carry = and(acc[j], pp)
				} else {
					sum, carry = xor(sum, carry), or(and(acc[j], pp), and(sum, carry))
				}
				acc[j] = sum
			}
		}
		return acc
	}
	a, b := make([]Lit, w), make([]Lit, w)
	for i := range a {
		a[i], b[i] = fresh(), fresh()
	}
	p, q := mul(a, b), mul(b, a)
	var diff []Lit
	for i := range p {
		diff = append(diff, xor(p[i], q[i]))
	}
	add(diff...)
	return c
}

// BenchmarkPropagateTseitin times the SAT core alone on the width-8
// multiplier miter and reports its propagation rate.
func BenchmarkPropagateTseitin(b *testing.B) {
	inst := mulMiterCNF(8)
	var props int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := inst.solver()
		st, err := s.Solve(Options{})
		if err != nil || st != Unsat {
			b.Fatalf("got %v %v", st, err)
		}
		props += s.Stats.Propagations
	}
	b.ReportMetric(float64(props)/b.Elapsed().Seconds(), "props/s")
}

func BenchmarkRandom3SAT(b *testing.B) {
	// Planted satisfiable instances at clause ratio 4.0.
	rng := rand.New(rand.NewSource(5))
	n := 120
	m := 480
	for i := 0; i < b.N; i++ {
		planted := make([]bool, n)
		for j := range planted {
			planted[j] = rng.Intn(2) == 0
		}
		s := New()
		for j := 0; j < n; j++ {
			s.NewVar()
		}
		for c := 0; c < m; c++ {
			lits := make([]Lit, 3)
			sat := false
			for j := range lits {
				v := Var(rng.Intn(n))
				lits[j] = MkLit(v, rng.Intn(2) == 0)
				val := planted[v]
				if lits[j].Neg() {
					val = !val
				}
				if val {
					sat = true
				}
			}
			if !sat {
				lits[0] = MkLit(lits[0].Var(), !planted[lits[0].Var()])
			}
			s.AddClause(lits...)
		}
		st, err := s.Solve(Options{})
		if err != nil || st != Sat {
			b.Fatalf("got %v %v", st, err)
		}
	}
}
