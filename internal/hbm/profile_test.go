package hbm

import (
	"testing"

	"cordial/internal/xrand"
)

func TestRegisteredProfilesValid(t *testing.T) {
	names := ProfileNames()
	if len(names) < 4 {
		t.Fatalf("registry has %d profiles, want at least 4: %v", len(names), names)
	}
	for _, name := range names {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("profile %q invalid: %v", name, err)
		}
		if p.Layout.Bits() > 64 {
			t.Errorf("profile %q layout needs %d bits", name, p.Layout.Bits())
		}
	}
}

// TestHBM2ELayoutMatchesHistoricalConstants pins the hbm2e layout to the
// fixed shifts the codebase used before layouts were profile-derived, so
// packed addresses, bank keys and plan digests stay stable.
func TestHBM2ELayoutMatchesHistoricalConstants(t *testing.T) {
	want := map[field]struct{ width, shift int }{
		fieldColumn:        {8, 0},
		fieldRow:           {16, 8},
		fieldBank:          {2, 24},
		fieldBankGroup:     {2, 26},
		fieldDevice:        {0, 28},
		fieldRank:          {0, 28},
		fieldPseudoChannel: {1, 28},
		fieldChannel:       {3, 29},
		fieldSID:           {1, 32},
		fieldHBM:           {2, 33},
		fieldNPU:           {4, 35},
		fieldNode:          {12, 39},
	}
	l := HBM2E.Layout
	for f, w := range want {
		if l.width[f] != w.width || int(l.shift[f]) != w.shift {
			t.Errorf("%s: width/shift = %d/%d, want %d/%d",
				fieldNames[f], l.width[f], l.shift[f], w.width, w.shift)
		}
	}
}

func TestProfilePackUnpackRoundTrip(t *testing.T) {
	for _, name := range ProfileNames() {
		t.Run(name, func(t *testing.T) {
			p, err := ProfileByName(name)
			if err != nil {
				t.Fatal(err)
			}
			prev := ActivateProfile(p)
			defer ActivateProfile(prev)
			r := xrand.New(42)
			g := p.Geometry
			for i := 0; i < 500; i++ {
				a := CellInBank(RandomBank(g, r), r.Intn(g.RowsPerBank), r.Intn(g.ColsPerBank))
				v, err := a.PackChecked()
				if err != nil {
					t.Fatalf("PackChecked(%+v): %v", a, err)
				}
				back, err := UnpackChecked(v)
				if err != nil {
					t.Fatalf("UnpackChecked(%#x): %v", v, err)
				}
				if back != a {
					t.Fatalf("round trip mismatch: %+v vs %+v", back, a)
				}
				s, err := ParseAddress(a.String())
				if err != nil {
					t.Fatalf("ParseAddress(%q): %v", a.String(), err)
				}
				if s != a {
					t.Fatalf("string round trip mismatch: %+v vs %+v", s, a)
				}
			}
		})
	}
}

func TestDDRTruncateHierarchy(t *testing.T) {
	prev := ActivateProfile(DDR5DIMM)
	defer ActivateProfile(prev)
	a := Address{Node: 3, NPU: 1, Channel: 6, HBM: 1, Rank: 1, Device: 5, BankGroup: 3, Bank: 2, Row: 999, Column: 55}
	tests := []struct {
		level Level
		want  Address
	}{
		{LevelRow, Address{Node: 3, NPU: 1, Channel: 6, HBM: 1, Rank: 1, Device: 5, BankGroup: 3, Bank: 2, Row: 999}},
		{LevelBank, Address{Node: 3, NPU: 1, Channel: 6, HBM: 1, Rank: 1, Device: 5, BankGroup: 3, Bank: 2}},
		{LevelBankGroup, Address{Node: 3, NPU: 1, Channel: 6, HBM: 1, Rank: 1, Device: 5, BankGroup: 3}},
		{LevelDevice, Address{Node: 3, NPU: 1, Channel: 6, HBM: 1, Rank: 1, Device: 5}},
		{LevelRank, Address{Node: 3, NPU: 1, Channel: 6, HBM: 1, Rank: 1}},
		// Under DIMM profiles the module sits below the channel.
		{LevelHBM, Address{Node: 3, NPU: 1, Channel: 6, HBM: 1}},
		{LevelChannel, Address{Node: 3, NPU: 1, Channel: 6}},
		{LevelNPU, Address{Node: 3, NPU: 1}},
	}
	for _, tc := range tests {
		if got := a.Truncate(tc.level); got != tc.want {
			t.Errorf("Truncate(%v) = %+v, want %+v", tc.level, got, tc.want)
		}
	}
}

func TestProfileLevelNames(t *testing.T) {
	if got := DDR5DIMM.LevelName(LevelNPU); got != "Socket" {
		t.Errorf("ddr5 LevelName(NPU) = %q, want Socket", got)
	}
	if got := DDR5DIMM.LevelName(LevelHBM); got != "DIMM" {
		t.Errorf("ddr5 LevelName(HBM) = %q, want DIMM", got)
	}
	if got := HBM2E.LevelName(LevelHBM); got != "HBM" {
		t.Errorf("hbm2e LevelName(HBM) = %q, want HBM", got)
	}
}

func TestSetActiveProfile(t *testing.T) {
	prev := ActiveProfile()
	defer ActivateProfile(prev)
	p, err := SetActiveProfile("hbm3")
	if err != nil {
		t.Fatal(err)
	}
	if ActiveProfile() != p || p.Name != "hbm3" {
		t.Fatalf("active profile = %q, want hbm3", ActiveProfile().Name)
	}
	if _, err := SetActiveProfile("no-such-topology"); err == nil {
		t.Fatal("SetActiveProfile accepted an unknown name")
	}
}

func TestDeriveLayout(t *testing.T) {
	g := DefaultGeometry
	g.RowsPerBank = 4096
	g.ColsPerBank = 64
	l, err := DeriveLayout(g, hbmOrder)
	if err != nil {
		t.Fatal(err)
	}
	if w := l.width[fieldRow]; w != 12 {
		t.Errorf("derived row width = %d, want 12", w)
	}
	if w := l.width[fieldRank]; w != 0 {
		t.Errorf("derived rank width = %d, want 0", w)
	}
	if err := l.fits(g); err != nil {
		t.Errorf("derived layout does not fit its own geometry: %v", err)
	}
}

func TestGeometryValidateAgainstActiveLayout(t *testing.T) {
	prev := ActivateProfile(DDR5DIMM)
	defer ActivateProfile(prev)
	g := DDR5DIMM.Geometry
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.RanksPerModule = 4 // exceeds the 1-bit rank field
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted ranks over layout capacity")
	}
}

// TestEntityKeyMatchesTruncatePack: the masked key must equal the key of
// the truncated address for every registered profile, at every level
// (plus values naming no level, which truncate nothing), on addresses
// spanning the whole geometry.
func TestEntityKeyMatchesTruncatePack(t *testing.T) {
	levels := []Level{0, maxLevel + 1, -1}
	for l := range levelField {
		levels = append(levels, l)
	}
	for _, name := range ProfileNames() {
		t.Run(name, func(t *testing.T) {
			p, err := ProfileByName(name)
			if err != nil {
				t.Fatal(err)
			}
			prev := ActivateProfile(p)
			defer ActivateProfile(prev)
			r := xrand.New(7)
			g := p.Geometry
			for i := 0; i < 500; i++ {
				a := CellInBank(RandomBank(g, r), r.Intn(g.RowsPerBank), r.Intn(g.ColsPerBank))
				for _, l := range levels {
					if got, want := a.EntityKey(l), a.Truncate(l).Pack(); got != want {
						t.Fatalf("%+v EntityKey(%v) = %#x, Truncate(%v).Pack() = %#x", a, l, got, l, want)
					}
				}
				if a.BankKey() != a.Truncate(LevelBank).Pack() || a.RowKey() != a.Truncate(LevelRow).Pack() {
					t.Fatalf("%+v: BankKey/RowKey disagree with Truncate+Pack", a)
				}
			}
		})
	}
}
