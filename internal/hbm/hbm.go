// Package hbm models the physical organisation of the memory fleets the
// Cordial paper studies. The default topology is the paper's HBM2E
// organisation (§II-A): a fleet of compute nodes, each with 8 NPUs, each
// NPU with two HBM sockets; every HBM is an 8Hi stack exposing 2 stack IDs
// (SIDs), 8 channels, 2 pseudo-channels per channel, 4 bank groups per
// pseudo-channel and 4 banks per group. A bank is a two-dimensional array
// of cells indexed by row and column.
//
// The package provides a compact address representation, the micro-level
// hierarchy used throughout the paper (NPU → HBM → SID → CH → PS-CH → BG →
// Bank → Row, with the channel level between SID and pseudo-channel), and
// geometry helpers the simulators and predictors share. Topologies beyond
// HBM2E — HBM3 stacks and DDR4/DDR5 DIMM fleets, which add rank and device
// levels and place the channel above the module — are named Profiles in a
// registry (see profile.go); the active profile determines the packed
// address layout and the hierarchy ordering.
package hbm

import (
	"fmt"
	"strconv"
	"strings"
)

// Geometry describes the dimensions of the modelled memory fleet. The zero
// value is not useful; start from DefaultGeometry or a registered
// profile's Geometry and adjust. For DIMM topologies the NPU dimension is
// the socket count and the HBM dimension the DIMMs per channel; the
// hierarchy ordering lives in the Profile, not here.
type Geometry struct {
	Nodes          int // compute nodes in the fleet
	NPUsPerNode    int // NPUs (or sockets) per compute node
	HBMsPerNPU     int // HBM sockets per NPU (or DIMMs per channel)
	SIDsPerHBM     int // stack IDs per HBM (8Hi stack → 2 SIDs)
	ChannelsPerSID int // channels per stack ID (or per socket)
	PseudoChPerCh  int // pseudo-channels per channel
	RanksPerModule int // ranks per DIMM; 0 means 1 (HBM topologies)
	DevicesPerRank int // DRAM devices per rank; 0 means 1 (HBM topologies)
	BankGroups     int // bank groups per pseudo-channel (or per device)
	BanksPerGroup  int // banks per bank group
	RowsPerBank    int // rows per bank
	ColsPerBank    int // columns per bank
}

// DefaultGeometry matches the HBM2E organisation in the paper (Figure 1)
// with a fleet large enough (1024 NPUs) that error banks stay sparse per
// NPU — the sparsity the hierarchical sudden-ratio structure of Table I
// depends on — while tests and examples still run quickly. Production-like
// studies scale Nodes up further; nothing else changes.
var DefaultGeometry = Geometry{
	Nodes:          128,
	NPUsPerNode:    8,
	HBMsPerNPU:     2,
	SIDsPerHBM:     2,
	ChannelsPerSID: 8,
	PseudoChPerCh:  2,
	BankGroups:     4,
	BanksPerGroup:  4,
	RowsPerBank:    32768,
	ColsPerBank:    128,
}

// dim returns the number of distinct values the field can take under the
// geometry. The rank and device dimensions are normalised: zero means the
// level does not exist, i.e. exactly one value.
func (g Geometry) dim(f field) int {
	switch f {
	case fieldNode:
		return g.Nodes
	case fieldNPU:
		return g.NPUsPerNode
	case fieldHBM:
		return g.HBMsPerNPU
	case fieldSID:
		return g.SIDsPerHBM
	case fieldChannel:
		return g.ChannelsPerSID
	case fieldPseudoChannel:
		return g.PseudoChPerCh
	case fieldRank:
		if g.RanksPerModule <= 0 {
			return 1
		}
		return g.RanksPerModule
	case fieldDevice:
		if g.DevicesPerRank <= 0 {
			return 1
		}
		return g.DevicesPerRank
	case fieldBankGroup:
		return g.BankGroups
	case fieldBank:
		return g.BanksPerGroup
	case fieldRow:
		return g.RowsPerBank
	case fieldColumn:
		return g.ColsPerBank
	}
	return 0
}

// validateDims checks that every dimension is positive (rank and device
// may be zero, meaning absent) without consulting any layout.
func (g Geometry) validateDims() error {
	if g.RanksPerModule < 0 {
		return fmt.Errorf("hbm: geometry RanksPerModule must be non-negative, got %d", g.RanksPerModule)
	}
	if g.DevicesPerRank < 0 {
		return fmt.Errorf("hbm: geometry DevicesPerRank must be non-negative, got %d", g.DevicesPerRank)
	}
	for f := field(0); f < numFields; f++ {
		if g.dim(f) <= 0 {
			return fmt.Errorf("hbm: geometry %s must be positive, got %d", fieldNames[f], g.dim(f))
		}
	}
	return nil
}

// Validate reports whether every dimension is positive and within the bit
// budget of the active profile's packed address layout.
func (g Geometry) Validate() error {
	if err := g.validateDims(); err != nil {
		return err
	}
	return ActiveProfile().Layout.fits(g)
}

// TotalNPUs returns the number of NPUs (or sockets) in the fleet.
func (g Geometry) TotalNPUs() int { return g.Nodes * g.NPUsPerNode }

// isDIMM reports whether the geometry describes a DIMM topology, where
// the channel level sits above the module and ranks/devices sit inside it.
func (g Geometry) isDIMM() bool { return g.RanksPerModule > 0 || g.DevicesPerRank > 0 }

// modulesPerNPU returns the memory modules below one NPU/socket. For HBM
// topologies that is HBMsPerNPU; for DIMM topologies the channel level
// sits above the module, so it is channels × DIMMs-per-channel.
func (g Geometry) modulesPerNPU() int {
	if g.isDIMM() {
		return g.ChannelsPerSID * g.HBMsPerNPU
	}
	return g.HBMsPerNPU
}

// TotalHBMs returns the number of memory modules (HBM stacks or DIMMs) in
// the fleet.
func (g Geometry) TotalHBMs() int { return g.TotalNPUs() * g.modulesPerNPU() }

// BanksPerHBM returns the number of banks in one memory module.
func (g Geometry) BanksPerHBM() int {
	if g.isDIMM() {
		return g.SIDsPerHBM * g.PseudoChPerCh * g.dim(fieldRank) * g.dim(fieldDevice) *
			g.BankGroups * g.BanksPerGroup
	}
	return g.SIDsPerHBM * g.ChannelsPerSID * g.PseudoChPerCh * g.BankGroups * g.BanksPerGroup
}

// TotalBanks returns the number of banks in the fleet.
func (g Geometry) TotalBanks() int {
	return g.Nodes * g.NPUsPerNode * g.HBMsPerNPU * g.SIDsPerHBM *
		g.ChannelsPerSID * g.PseudoChPerCh * g.dim(fieldRank) * g.dim(fieldDevice) *
		g.BankGroups * g.BanksPerGroup
}

// Level identifies a micro-level of the memory hierarchy. The set of
// levels present and their coarse-to-fine ordering are properties of the
// active Profile; Level values themselves are stable identifiers.
type Level int

// Hierarchy levels. Under HBM topologies LevelChannel sits between SID and
// pseudo-channel; under DIMM topologies LevelChannel sits above the module
// and LevelRank/LevelDevice sit between module and bank group. The numeric
// order of the constants is not the hierarchy order — consult
// Profile.Levels for that.
const (
	LevelNPU Level = iota + 1
	LevelHBM
	LevelSID
	LevelChannel
	LevelPseudoChannel
	LevelBankGroup
	LevelBank
	LevelRow
	LevelRank
	LevelDevice

	maxLevel = LevelDevice
)

// TableLevels are the micro-levels reported in the paper's Tables I and II
// for the HBM2E topology. Profile.TableLevels carries the per-topology
// equivalent; this package-level list is retained for the default profile.
var TableLevels = []Level{
	LevelNPU, LevelHBM, LevelSID, LevelPseudoChannel, LevelBankGroup, LevelBank, LevelRow,
}

var levelNames = map[Level]string{
	LevelNPU:           "NPU",
	LevelHBM:           "HBM",
	LevelSID:           "SID",
	LevelChannel:       "CH",
	LevelPseudoChannel: "PS-CH",
	LevelRank:          "Rank",
	LevelDevice:        "Dev",
	LevelBankGroup:     "BG",
	LevelBank:          "Bank",
	LevelRow:           "Row",
}

// String returns the paper's abbreviation for the level under the default
// topology; Profile.LevelName applies per-topology renames (Socket, DIMM).
func (l Level) String() string {
	if s, ok := levelNames[l]; ok {
		return s
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Address identifies a memory location (or a coarser entity, with the finer
// fields zeroed) inside the fleet. All fields are zero-based indices. Rank
// and Device are zero under HBM topologies, which give them no extent.
type Address struct {
	Node          int
	NPU           int
	HBM           int
	SID           int
	Channel       int
	PseudoChannel int
	Rank          int
	Device        int
	BankGroup     int
	Bank          int
	Row           int
	Column        int
}

// get returns the field's value.
func (a Address) get(f field) int {
	switch f {
	case fieldNode:
		return a.Node
	case fieldNPU:
		return a.NPU
	case fieldHBM:
		return a.HBM
	case fieldSID:
		return a.SID
	case fieldChannel:
		return a.Channel
	case fieldPseudoChannel:
		return a.PseudoChannel
	case fieldRank:
		return a.Rank
	case fieldDevice:
		return a.Device
	case fieldBankGroup:
		return a.BankGroup
	case fieldBank:
		return a.Bank
	case fieldRow:
		return a.Row
	case fieldColumn:
		return a.Column
	}
	return 0
}

// set assigns the field's value.
func (a *Address) set(f field, v int) {
	switch f {
	case fieldNode:
		a.Node = v
	case fieldNPU:
		a.NPU = v
	case fieldHBM:
		a.HBM = v
	case fieldSID:
		a.SID = v
	case fieldChannel:
		a.Channel = v
	case fieldPseudoChannel:
		a.PseudoChannel = v
	case fieldRank:
		a.Rank = v
	case fieldDevice:
		a.Device = v
	case fieldBankGroup:
		a.BankGroup = v
	case fieldBank:
		a.Bank = v
	case fieldRow:
		a.Row = v
	case fieldColumn:
		a.Column = v
	}
}

// Pack encodes the address into a single uint64 under the active profile's
// layout. Pack and Unpack are inverses for any address whose fields are
// within the layout's encoding capacities; a field outside its capacity is
// silently lost, which is why every trust boundary (wire decode, JSONL
// parse, simulator emit) must use PackChecked or UnpackChecked instead.
func (a Address) Pack() uint64 { return pack(&a, &ActiveProfile().Layout) }

// pack is Pack under an explicit layout, taking the address by pointer so
// the key paths below copy it no further.
func pack(a *Address, l *Layout) uint64 {
	return uint64(a.Node)<<l.shift[fieldNode] |
		uint64(a.NPU)<<l.shift[fieldNPU] |
		uint64(a.HBM)<<l.shift[fieldHBM] |
		uint64(a.SID)<<l.shift[fieldSID] |
		uint64(a.Channel)<<l.shift[fieldChannel] |
		uint64(a.PseudoChannel)<<l.shift[fieldPseudoChannel] |
		uint64(a.Rank)<<l.shift[fieldRank] |
		uint64(a.Device)<<l.shift[fieldDevice] |
		uint64(a.BankGroup)<<l.shift[fieldBankGroup] |
		uint64(a.Bank)<<l.shift[fieldBank] |
		uint64(a.Row)<<l.shift[fieldRow] |
		uint64(a.Column)<<l.shift[fieldColumn]
}

// PackChecked encodes the address, rejecting any field outside its bit
// budget in the active layout instead of truncating it. This is the only
// safe way to derive a key from an address that crossed a trust boundary.
func (a Address) PackChecked() (uint64, error) {
	l := &ActiveProfile().Layout
	var v uint64
	for f := field(0); f < numFields; f++ {
		x := a.get(f)
		if x < 0 || x >= l.capacity(f) {
			return 0, fmt.Errorf("hbm: address %s index %d outside encoding range [0,%d) (%d bits)",
				fieldNames[f], x, l.capacity(f), l.width[f])
		}
		v |= uint64(x) << l.shift[f]
	}
	return v, nil
}

// Unpack decodes an address previously produced by Pack under the same
// active profile.
func Unpack(v uint64) Address {
	l := &ActiveProfile().Layout
	return Address{
		Node:          l.get(v, fieldNode),
		NPU:           l.get(v, fieldNPU),
		HBM:           l.get(v, fieldHBM),
		SID:           l.get(v, fieldSID),
		Channel:       l.get(v, fieldChannel),
		PseudoChannel: l.get(v, fieldPseudoChannel),
		Rank:          l.get(v, fieldRank),
		Device:        l.get(v, fieldDevice),
		BankGroup:     l.get(v, fieldBankGroup),
		Bank:          l.get(v, fieldBank),
		Row:           l.get(v, fieldRow),
		Column:        l.get(v, fieldColumn),
	}
}

// UnpackChecked decodes a packed address, rejecting values with bits set
// outside the active layout. Unpack silently drops such bits, which would
// alias two distinct (corrupt) keys onto one address; checked decode turns
// that into a detectable error at the trust boundary.
func UnpackChecked(v uint64) (Address, error) {
	l := &ActiveProfile().Layout
	if rest := v &^ l.used; rest != 0 {
		return Address{}, fmt.Errorf("hbm: packed address %#x has bits %#x outside the %d-bit layout", v, rest, l.Bits())
	}
	return Unpack(v), nil
}

// Validate reports whether the address is within the geometry's bounds.
func (a Address) Validate(g Geometry) error {
	for f := field(0); f < numFields; f++ {
		if v, n := a.get(f), g.dim(f); v < 0 || v >= n {
			return fmt.Errorf("hbm: %s index %d out of range [0,%d)", fieldNames[f], v, n)
		}
	}
	return nil
}

// String renders the address in the canonical dotted form, e.g.
// "n3.u2.h1.s0.c5.p1.g2.b3.r12345.col87". Under topologies with rank and
// device levels the two extra segments appear after the bank, e.g.
// "n3.u1.h0.s0.c5.p0.g2.b3.k1.d6.r12345.col87"; they are omitted entirely
// when both are zero, so HBM addresses keep their historical form.
func (a Address) String() string {
	var b strings.Builder
	b.Grow(56)
	withRank := a.Rank != 0 || a.Device != 0
	for i, f := range addressFields(withRank) {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(f.tag)
		b.WriteString(strconv.Itoa(a.get(f.f)))
	}
	return b.String()
}

// addressField pairs a string tag with the address field it renders.
type addressField struct {
	tag string
	f   field
}

var addressFieldsShort = []addressField{
	{"n", fieldNode}, {"u", fieldNPU}, {"h", fieldHBM}, {"s", fieldSID},
	{"c", fieldChannel}, {"p", fieldPseudoChannel}, {"g", fieldBankGroup},
	{"b", fieldBank}, {"r", fieldRow}, {"col", fieldColumn},
}

var addressFieldsLong = []addressField{
	{"n", fieldNode}, {"u", fieldNPU}, {"h", fieldHBM}, {"s", fieldSID},
	{"c", fieldChannel}, {"p", fieldPseudoChannel}, {"g", fieldBankGroup},
	{"b", fieldBank}, {"k", fieldRank}, {"d", fieldDevice},
	{"r", fieldRow}, {"col", fieldColumn},
}

func addressFields(withRank bool) []addressField {
	if withRank {
		return addressFieldsLong
	}
	return addressFieldsShort
}

// parseCanonicalInt parses a non-negative decimal integer in canonical
// form: digits only, no sign, no leading zeros. Anything strconv accepts
// but Itoa would not reproduce — "+3", "007", "1_0" — is rejected, so the
// parse/render pair is a bijection and string-keyed dedup stays sound.
func parseCanonicalInt(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if v < 0 || strconv.Itoa(v) != s {
		return 0, fmt.Errorf("non-canonical integer %q", s)
	}
	return v, nil
}

// ParseAddress parses the canonical dotted form produced by String. It is
// strict in both directions: each field must be a canonical decimal (no
// sign, no leading zeros) and must fit the active layout's bit budget, so
// a parsed address always survives Pack without loss. Addresses with 12
// fields carry rank and device; per the canonical form they must not both
// be zero there (String omits them in that case).
func ParseAddress(s string) (Address, error) {
	parts := strings.Split(s, ".")
	var fields []addressField
	switch len(parts) {
	case len(addressFieldsShort):
		fields = addressFieldsShort
	case len(addressFieldsLong):
		fields = addressFieldsLong
	default:
		return Address{}, fmt.Errorf("hbm: address %q has %d fields, want %d or %d",
			s, len(parts), len(addressFieldsShort), len(addressFieldsLong))
	}
	var a Address
	for i, spec := range fields {
		p := parts[i]
		if !strings.HasPrefix(p, spec.tag) {
			return Address{}, fmt.Errorf("hbm: address field %q does not start with %q", p, spec.tag)
		}
		v, err := parseCanonicalInt(p[len(spec.tag):])
		if err != nil {
			return Address{}, fmt.Errorf("hbm: address field %q: %w", p, err)
		}
		a.set(spec.f, v)
	}
	if len(parts) == len(addressFieldsLong) && a.Rank == 0 && a.Device == 0 {
		return Address{}, fmt.Errorf("hbm: address %q spells out zero rank and device; canonical form omits them", s)
	}
	if _, err := a.PackChecked(); err != nil {
		return Address{}, err
	}
	return a, nil
}

// Truncate zeroes every field finer than the given level under the active
// profile's hierarchy, producing the address of the enclosing entity at
// that level. For example, truncating at LevelBank clears Row and Column;
// under a DIMM profile, truncating at LevelChannel clears the module, rank
// and device as well, because they sit below the channel there.
func (a Address) Truncate(l Level) Address {
	p := ActiveProfile()
	i := p.truncateFrom(l)
	if i < 0 {
		return a
	}
	t := a
	for _, f := range p.Layout.order[i+1:] {
		t.set(f, 0)
	}
	return t
}

// EntityKey returns a unique packed key for the entity containing the
// address at the given level. Two addresses share a key at level l exactly
// when they fall in the same level-l entity. It equals
// a.Truncate(l).Pack() for any address Pack encodes without loss, computed
// as the packed address under the layout's per-level mask instead of by
// copying and zeroing the address — every ingested and replayed event
// derives its bank key here.
func (a Address) EntityKey(l Level) uint64 {
	lay := &ActiveProfile().Layout
	return pack(&a, lay) & lay.entityMask(l)
}

// BankKey is shorthand for EntityKey(LevelBank): a unique identifier for the
// bank containing the address.
func (a Address) BankKey() uint64 {
	lay := &ActiveProfile().Layout
	return pack(&a, lay) & lay.keyMask[LevelBank]
}

// RowKey uniquely identifies a row within the fleet.
func (a Address) RowKey() uint64 {
	lay := &ActiveProfile().Layout
	return pack(&a, lay) & lay.keyMask[LevelRow]
}

// SameBank reports whether two addresses fall in the same bank.
func (a Address) SameBank(b Address) bool { return a.BankKey() == b.BankKey() }

// RowDistance returns |a.Row - b.Row|. It is only meaningful for addresses
// in the same bank.
func RowDistance(a, b Address) int {
	d := a.Row - b.Row
	if d < 0 {
		return -d
	}
	return d
}

// BankAddress identifies one bank in the fleet; it is an Address with row
// and column zeroed, retained as a distinct named type for API clarity.
type BankAddress = Address

// BankOf returns the bank-level address containing a.
func BankOf(a Address) BankAddress { return a.Truncate(LevelBank) }

// RandomSource abstracts the subset of xrand.RNG the package needs, keeping
// hbm free of a dependency on the generator implementation.
type RandomSource interface {
	Intn(n int) int
}

// RandomBank draws a uniformly random bank address within the geometry.
// Degenerate dimensions (size 1) consume no randomness, so HBM topologies
// draw exactly the same stream they did before rank/device existed and
// seeded workloads stay byte-identical.
func RandomBank(g Geometry, r RandomSource) BankAddress {
	draw := func(n int) int {
		if n <= 1 {
			return 0
		}
		return r.Intn(n)
	}
	return Address{
		Node:          draw(g.Nodes),
		NPU:           draw(g.NPUsPerNode),
		HBM:           draw(g.HBMsPerNPU),
		SID:           draw(g.SIDsPerHBM),
		Channel:       draw(g.ChannelsPerSID),
		PseudoChannel: draw(g.PseudoChPerCh),
		Rank:          draw(g.dim(fieldRank)),
		Device:        draw(g.dim(fieldDevice)),
		BankGroup:     draw(g.BankGroups),
		Bank:          draw(g.BanksPerGroup),
	}
}

// RandomBankWithin draws a random bank sharing the level entity of anchor:
// every bank-address field finer than the level under the active profile's
// hierarchy is re-randomised. As with RandomBank, degenerate dimensions
// (size 1) consume no randomness.
func RandomBankWithin(g Geometry, r RandomSource, anchor BankAddress, level Level) BankAddress {
	p := ActiveProfile()
	i := p.truncateFrom(level)
	if i < 0 {
		return anchor
	}
	b := anchor
	for _, f := range p.Layout.order[i+1:] {
		if f == fieldRow || f == fieldColumn {
			continue
		}
		if n := g.dim(f); n > 1 {
			b.set(f, r.Intn(n))
		} else {
			b.set(f, 0)
		}
	}
	return b
}

// CellInBank returns the full address of (row, col) within the given bank.
func CellInBank(bank BankAddress, row, col int) Address {
	a := bank
	a.Row = row
	a.Column = col
	return a
}

// ClampRow clamps row into [0, g.RowsPerBank).
func (g Geometry) ClampRow(row int) int {
	if row < 0 {
		return 0
	}
	if row >= g.RowsPerBank {
		return g.RowsPerBank - 1
	}
	return row
}
