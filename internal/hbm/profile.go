package hbm

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Topology profiles.
//
// The packed-address encoding, the micro-level hierarchy and the geometry
// used to be one hard-coded HBM2E layout. A Profile bundles the three into
// a named, registered unit: the fleet Geometry, the bit Layout of the
// packed address, and the ordered hierarchy Levels (DDR organisations add
// rank/device and place the channel above the module; HBM stacks do the
// reverse). Exactly one profile is active per process — the encoding of a
// packed address is meaningless without it — and everything that packs,
// unpacks, truncates or renders addresses consults the active profile.

// field enumerates the address fields a layout can allocate bits to, in
// struct order. Hierarchy order is a per-profile property (Layout.order);
// field values are stable identifiers, not positions.
type field int

const (
	fieldNode field = iota
	fieldNPU
	fieldHBM
	fieldSID
	fieldChannel
	fieldPseudoChannel
	fieldRank
	fieldDevice
	fieldBankGroup
	fieldBank
	fieldRow
	fieldColumn
	numFields
)

var fieldNames = [numFields]string{
	"node", "npu", "hbm", "sid", "channel", "pseudo-channel",
	"rank", "device", "bank group", "bank", "row", "column",
}

// levelField maps each hierarchy level to the address field it truncates
// at. The mapping is global; only the ordering of levels varies by profile.
var levelField = map[Level]field{
	LevelNPU:           fieldNPU,
	LevelHBM:           fieldHBM,
	LevelSID:           fieldSID,
	LevelChannel:       fieldChannel,
	LevelPseudoChannel: fieldPseudoChannel,
	LevelRank:          fieldRank,
	LevelDevice:        fieldDevice,
	LevelBankGroup:     fieldBankGroup,
	LevelBank:          fieldBank,
	LevelRow:           fieldRow,
}

// Layout is the bit allocation of the packed uint64 address: which fields
// exist, in what hierarchy order (coarsest first, so coarser fields land in
// higher bits), and how many bits each gets. A zero-width field is carried
// in the Address struct but occupies no bits — packing a nonzero value into
// it is an encoding-range error under PackChecked and silent loss under
// Pack, which is why trust boundaries must use the checked form.
type Layout struct {
	order [numFields]field // hierarchy order, coarsest first; always all fields
	width [numFields]int   // bits per field, indexed by field
	shift [numFields]uint  // bit position per field, indexed by field
	used  uint64           // mask of bits any field occupies
	// keyMask[l] keeps the bits of the fields at or above level l in the
	// hierarchy, so a level-l entity key is the packed address under this
	// mask. Indexed by Level; all ones for values that name no level.
	keyMask [maxLevel + 1]uint64
}

// NewLayout builds a layout from a hierarchy order (coarsest first; must
// mention every field exactly once) and per-field bit widths.
func NewLayout(order []field, width map[field]int) (Layout, error) {
	var l Layout
	if len(order) != int(numFields) {
		return Layout{}, fmt.Errorf("hbm: layout order has %d fields, want %d", len(order), numFields)
	}
	seen := [numFields]bool{}
	for i, f := range order {
		if f < 0 || f >= numFields || seen[f] {
			return Layout{}, fmt.Errorf("hbm: layout order entry %d (%v) invalid or duplicated", i, f)
		}
		seen[f] = true
		l.order[i] = f
	}
	total := 0
	for f, w := range width {
		if w < 0 || w > 32 {
			return Layout{}, fmt.Errorf("hbm: layout width %d for %s out of range [0,32]", w, fieldNames[f])
		}
		l.width[f] = w
		total += w
	}
	if total > 64 {
		return Layout{}, fmt.Errorf("hbm: layout needs %d bits, only 64 available", total)
	}
	// Assign shifts finest-field-first from bit 0 upward.
	shift := uint(0)
	for i := int(numFields) - 1; i >= 0; i-- {
		f := l.order[i]
		l.shift[f] = shift
		shift += uint(l.width[f])
		if w := l.width[f]; w > 0 {
			l.used |= ((uint64(1) << w) - 1) << l.shift[f]
		}
	}
	for lv := range l.keyMask {
		l.keyMask[lv] = ^uint64(0)
	}
	for lv, f := range levelField {
		var m uint64
		for _, of := range l.order {
			if w := l.width[of]; w > 0 {
				m |= ((uint64(1) << w) - 1) << l.shift[of]
			}
			if of == f {
				break
			}
		}
		l.keyMask[lv] = m
	}
	return l, nil
}

// entityMask returns keyMask[lv], or all ones for a value naming no level
// (Truncate leaves the address whole there).
func (l *Layout) entityMask(lv Level) uint64 {
	if lv < 0 || int(lv) >= len(l.keyMask) {
		return ^uint64(0)
	}
	return l.keyMask[lv]
}

// Bits returns the total number of bits the layout occupies.
func (l Layout) Bits() int {
	n := 0
	for _, w := range l.width {
		n += w
	}
	return n
}

// Mask returns the bits any field occupies: a packed address with a bit
// outside it is not one Pack could have produced under this layout.
func (l Layout) Mask() uint64 { return l.used }

// get extracts field f from a packed address.
func (l *Layout) get(v uint64, f field) int {
	return int(v >> l.shift[f] & (uint64(1)<<l.width[f] - 1))
}

// capacity returns the number of distinct values field f can encode.
func (l Layout) capacity(f field) int { return 1 << l.width[f] }

// fits reports whether the geometry's dimensions all fit the layout.
func (l Layout) fits(g Geometry) error {
	for f := field(0); f < numFields; f++ {
		if dim := g.dim(f); dim > l.capacity(f) {
			return fmt.Errorf("hbm: geometry %s = %d exceeds layout capacity %d (%d bits)",
				fieldNames[f], dim, l.capacity(f), l.width[f])
		}
	}
	return nil
}

// DeriveLayout computes a minimal layout for a geometry: each field gets
// exactly the bits needed to index its dimension, in the given hierarchy
// order. Registered profiles use hand-picked widths with headroom instead;
// this is for ad-hoc geometries in tests and experiments.
func DeriveLayout(g Geometry, order []field) (Layout, error) {
	width := make(map[field]int, numFields)
	for f := field(0); f < numFields; f++ {
		width[f] = bitsFor(g.dim(f))
	}
	return NewLayout(order, width)
}

// bitsFor returns the bits needed to index n distinct values (0 for n<=1).
func bitsFor(n int) int {
	b := 0
	for (1 << b) < n {
		b++
	}
	return b
}

// Profile is a named memory topology: geometry, packed-address layout and
// hierarchy. Profiles are immutable after registration.
type Profile struct {
	// Name is the registry key, e.g. "hbm2e" or "ddr5-dimm".
	Name string
	// Geometry is the fleet's dimensions under this topology.
	Geometry Geometry
	// Layout is the packed-address bit allocation.
	Layout Layout
	// Levels is the full hierarchy, coarsest first, restricted to levels
	// that exist (capacity > 1) under this topology.
	Levels []Level
	// TableLevels are the levels the per-level study tables report.
	TableLevels []Level
	// levelNames overrides Level display names (e.g. NPU → "Socket").
	levelNames map[Level]string
}

// LevelName returns the display name of a level under this profile: DDR
// organisations rename NPU to Socket and HBM to DIMM.
func (p *Profile) LevelName(l Level) string {
	if s, ok := p.levelNames[l]; ok {
		return s
	}
	return l.String()
}

// Validate checks the profile's internal consistency: positive dimensions,
// every dimension within its layout capacity, and a coherent level list.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("hbm: profile has empty name")
	}
	// Validate against the profile's own layout, not the active one: the
	// registry fills before any profile is active.
	if err := p.Geometry.validateDims(); err != nil {
		return fmt.Errorf("hbm: profile %q: %w", p.Name, err)
	}
	if err := p.Layout.fits(p.Geometry); err != nil {
		return fmt.Errorf("hbm: profile %q: %w", p.Name, err)
	}
	for _, l := range p.Levels {
		if _, ok := levelField[l]; !ok {
			return fmt.Errorf("hbm: profile %q lists unknown level %v", p.Name, l)
		}
	}
	for _, l := range p.TableLevels {
		if _, ok := levelField[l]; !ok {
			return fmt.Errorf("hbm: profile %q table lists unknown level %v", p.Name, l)
		}
	}
	return nil
}

// truncateFrom returns the index in the layout order after which fields are
// zeroed when truncating at level l, or -1 if the level has no field here.
func (p *Profile) truncateFrom(l Level) int {
	f, ok := levelField[l]
	if !ok {
		return -1
	}
	for i, of := range p.Layout.order {
		if of == f {
			return i
		}
	}
	return -1
}

// Registry of named profiles. Registration happens at init and (for tests
// and experiments) at runtime; lookup is read-mostly.

var (
	registry = map[string]*Profile{}

	// active is the process-wide profile consulted by Address methods that
	// take no explicit profile. It is never nil after package init.
	active atomic.Pointer[Profile]
)

// RegisterProfile validates and adds a profile to the registry, replacing
// any previous profile of the same name.
func RegisterProfile(p *Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	registry[p.Name] = p
	return nil
}

// ProfileByName looks up a registered profile.
func ProfileByName(name string) (*Profile, error) {
	p, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("hbm: unknown topology profile %q (registered: %v)", name, ProfileNames())
	}
	return p, nil
}

// ProfileNames returns the registered profile names, sorted.
func ProfileNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ActiveProfile returns the process-wide active profile.
func ActiveProfile() *Profile { return active.Load() }

// SetActiveProfile makes the named registered profile active and returns
// it. Packed addresses produced under different profiles are not
// comparable; switch profiles only between workloads, never mid-stream.
func SetActiveProfile(name string) (*Profile, error) {
	p, err := ProfileByName(name)
	if err != nil {
		return nil, err
	}
	active.Store(p)
	return p, nil
}

// ActivateProfile makes an arbitrary (possibly unregistered) profile
// active and returns the previously active one, for deferred restore in
// tests and sequential multi-topology experiments.
func ActivateProfile(p *Profile) *Profile {
	prev := active.Load()
	active.Store(p)
	return prev
}

// hbmOrder is the stack hierarchy: node → NPU → HBM → SID → channel →
// pseudo-channel → bank group → bank → row → column. The rank and device
// fields exist in the struct but have no extent under HBM topologies; they
// sit just above the bank group so zero-width truncation stays coherent.
var hbmOrder = []field{
	fieldNode, fieldNPU, fieldHBM, fieldSID, fieldChannel, fieldPseudoChannel,
	fieldRank, fieldDevice, fieldBankGroup, fieldBank, fieldRow, fieldColumn,
}

// ddrOrder is the DIMM hierarchy: node → socket → channel → DIMM → rank →
// device → bank group → bank → row → column. The NPU field plays the
// socket, the HBM field the DIMM; SID and pseudo-channel have no extent.
var ddrOrder = []field{
	fieldNode, fieldNPU, fieldChannel, fieldHBM, fieldRank, fieldDevice,
	fieldSID, fieldPseudoChannel, fieldBankGroup, fieldBank, fieldRow, fieldColumn,
}

// ddrLevelNames renames the reused fields for DIMM topologies.
var ddrLevelNames = map[Level]string{
	LevelNPU: "Socket",
	LevelHBM: "DIMM",
}

func mustLayout(order []field, width map[field]int) Layout {
	l, err := NewLayout(order, width)
	if err != nil {
		panic(err)
	}
	return l
}

func mustRegister(p *Profile) *Profile {
	if err := RegisterProfile(p); err != nil {
		panic(err)
	}
	return p
}

// HBM2E is the paper's topology (Figure 1) and the default active profile.
// Its layout reproduces the historical fixed constants bit for bit, so
// packed addresses, bank keys and digests are stable across the change to
// profile-derived layouts.
var HBM2E = mustRegister(&Profile{
	Name:     "hbm2e",
	Geometry: DefaultGeometry,
	Layout: mustLayout(hbmOrder, map[field]int{
		fieldNode: 12, fieldNPU: 4, fieldHBM: 2, fieldSID: 1,
		fieldChannel: 3, fieldPseudoChannel: 1, fieldRank: 0, fieldDevice: 0,
		fieldBankGroup: 2, fieldBank: 2, fieldRow: 16, fieldColumn: 8,
	}),
	Levels: []Level{
		LevelNPU, LevelHBM, LevelSID, LevelChannel, LevelPseudoChannel,
		LevelBankGroup, LevelBank, LevelRow,
	},
	TableLevels: []Level{
		LevelNPU, LevelHBM, LevelSID, LevelPseudoChannel,
		LevelBankGroup, LevelBank, LevelRow,
	},
})

// HBM3 widens the stack: 16 channels per SID, 8 bank groups and 64Ki rows
// per bank, per the HBM3 JEDEC organisation.
var HBM3 = mustRegister(&Profile{
	Name: "hbm3",
	Geometry: Geometry{
		Nodes:          128,
		NPUsPerNode:    8,
		HBMsPerNPU:     2,
		SIDsPerHBM:     2,
		ChannelsPerSID: 16,
		PseudoChPerCh:  2,
		BankGroups:     8,
		BanksPerGroup:  4,
		RowsPerBank:    65536,
		ColsPerBank:    128,
	},
	Layout: mustLayout(hbmOrder, map[field]int{
		fieldNode: 12, fieldNPU: 4, fieldHBM: 2, fieldSID: 1,
		fieldChannel: 4, fieldPseudoChannel: 1, fieldRank: 0, fieldDevice: 0,
		fieldBankGroup: 3, fieldBank: 2, fieldRow: 17, fieldColumn: 8,
	}),
	Levels: []Level{
		LevelNPU, LevelHBM, LevelSID, LevelChannel, LevelPseudoChannel,
		LevelBankGroup, LevelBank, LevelRow,
	},
	TableLevels: []Level{
		LevelNPU, LevelHBM, LevelSID, LevelPseudoChannel,
		LevelBankGroup, LevelBank, LevelRow,
	},
})

// ddrLevels is the reported hierarchy for DIMM topologies.
var ddrLevels = []Level{
	LevelNPU, LevelChannel, LevelHBM, LevelRank, LevelDevice,
	LevelBankGroup, LevelBank, LevelRow,
}

// DDR4DIMM models a two-socket DDR4 server fleet: 4 channels per socket,
// 2 DIMMs per channel, 2 ranks per DIMM, 8 x8 devices per rank.
var DDR4DIMM = mustRegister(&Profile{
	Name: "ddr4-dimm",
	Geometry: Geometry{
		Nodes:          128,
		NPUsPerNode:    2, // sockets
		HBMsPerNPU:     2, // DIMMs per channel
		SIDsPerHBM:     1,
		ChannelsPerSID: 4, // channels per socket
		PseudoChPerCh:  1,
		RanksPerModule: 2,
		DevicesPerRank: 8,
		BankGroups:     4,
		BanksPerGroup:  4,
		RowsPerBank:    65536,
		ColsPerBank:    1024,
	},
	Layout: mustLayout(ddrOrder, map[field]int{
		fieldNode: 12, fieldNPU: 1, fieldHBM: 1, fieldSID: 0,
		fieldChannel: 2, fieldPseudoChannel: 0, fieldRank: 1, fieldDevice: 3,
		fieldBankGroup: 2, fieldBank: 2, fieldRow: 16, fieldColumn: 10,
	}),
	Levels:      ddrLevels,
	TableLevels: ddrLevels,
	levelNames:  ddrLevelNames,
})

// DDR5DIMM models a two-socket DDR5 server fleet: 8 channels per socket,
// 8 bank groups, 64Ki rows.
var DDR5DIMM = mustRegister(&Profile{
	Name: "ddr5-dimm",
	Geometry: Geometry{
		Nodes:          128,
		NPUsPerNode:    2, // sockets
		HBMsPerNPU:     2, // DIMMs per channel
		SIDsPerHBM:     1,
		ChannelsPerSID: 8, // channels per socket
		PseudoChPerCh:  1,
		RanksPerModule: 2,
		DevicesPerRank: 8,
		BankGroups:     8,
		BanksPerGroup:  4,
		RowsPerBank:    65536,
		ColsPerBank:    1024,
	},
	Layout: mustLayout(ddrOrder, map[field]int{
		fieldNode: 12, fieldNPU: 1, fieldHBM: 1, fieldSID: 0,
		fieldChannel: 3, fieldPseudoChannel: 0, fieldRank: 1, fieldDevice: 3,
		fieldBankGroup: 3, fieldBank: 2, fieldRow: 16, fieldColumn: 10,
	}),
	Levels:      ddrLevels,
	TableLevels: ddrLevels,
	levelNames:  ddrLevelNames,
})

func init() {
	active.Store(HBM2E)
}
