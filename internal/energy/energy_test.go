package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestComponentStrings(t *testing.T) {
	want := map[Component]string{
		L1I: "L1-I Cache", L1D: "L1-D Cache", LLC: "L2 Cache (LLC)",
		Directory: "Directory", Router: "Network Router", Link: "Network Link",
		DRAM: "DRAM",
	}
	for c, w := range want {
		if got := c.String(); got != w {
			t.Errorf("%d.String() = %q, want %q", c, got, w)
		}
	}
	if Component(42).String() != "Component(42)" {
		t.Error("unknown component string")
	}
}

// TestParamOrdering checks the physical orderings the model relies on (see
// package doc): L1 < LLC data, LLC write = 1.2x read (§4.1), DRAM dominates.
func TestParamOrdering(t *testing.T) {
	p := DefaultParams()
	if !(p.L1IRead < p.LLCDataRead && p.L1DRead < p.LLCDataRead) {
		t.Error("L1 access must be cheaper than LLC data access")
	}
	if ratio := p.LLCDataWrite / p.LLCDataRead; math.Abs(ratio-1.2) > 1e-9 {
		t.Errorf("LLC write/read ratio = %.3f, want 1.2 (stated in §4.1)", ratio)
	}
	if p.DRAMAccess < 50*p.LLCDataRead {
		t.Error("a DRAM line transfer must dominate an LLC access by orders of magnitude")
	}
	if !(p.LLCTagRead < p.LLCDataRead) {
		t.Error("tag access must be cheaper than data access")
	}
	if p.RouterFlit <= 0 || p.LinkFlit <= 0 {
		t.Error("network energies must be positive")
	}
}

func TestMeterAdd(t *testing.T) {
	var m Meter
	m.Add(L1I, 10)
	m.Add(L1I, 5)
	m.Add(DRAM, 6000)
	if got := m.PJ(L1I); got != 15 {
		t.Errorf("PJ(L1I) = %v, want 15", got)
	}
	if got := m.Count(L1I); got != 2 {
		t.Errorf("Count(L1I) = %d, want 2", got)
	}
	if got := m.Total(); got != 6015 {
		t.Errorf("Total = %v, want 6015", got)
	}
}

func TestMeterAddN(t *testing.T) {
	var m Meter
	m.AddN(Router, 5, 9)
	if m.PJ(Router) != 45 || m.Count(Router) != 9 {
		t.Errorf("AddN: pj=%v count=%d", m.PJ(Router), m.Count(Router))
	}
}

func TestMeterBreakdownIsCopy(t *testing.T) {
	var m Meter
	m.Add(LLC, 40)
	b := m.Breakdown()
	b[LLC] = 0
	if m.PJ(LLC) != 40 {
		t.Error("Breakdown must return a copy")
	}
}

func TestMeterReset(t *testing.T) {
	var m Meter
	m.Add(Link, 3)
	m.Reset()
	if m.Total() != 0 || m.Count(Link) != 0 {
		t.Error("Reset must zero the meter")
	}
}

// TestMeterTotalMatchesSum is a property: Total always equals the sum of the
// per-component breakdown, no matter the sequence of Adds.
func TestMeterTotalMatchesSum(t *testing.T) {
	f := func(events []uint8) bool {
		var m Meter
		for _, e := range events {
			m.Add(Component(e%NumComponents), float64(e))
		}
		var sum float64
		for _, v := range m.Breakdown() {
			sum += v
		}
		return math.Abs(sum-m.Total()) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
