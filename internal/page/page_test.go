package page

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/block"
	"repro/internal/capability"
)

func TestLegalFlagStatesAreThirteen(t *testing.T) {
	states := LegalStates()
	if len(states) != 13 {
		t.Fatalf("%d legal states, the paper says 13", len(states))
	}
	for _, s := range states {
		if !s.Valid() {
			t.Fatalf("state %s in legal list but invalid", s)
		}
	}
}

func TestFlagInvariants(t *testing.T) {
	for v := Flags(0); v < 32; v++ {
		mImpliesS := v&FlagM == 0 || v&FlagS != 0
		accessImpliesC := v&(FlagR|FlagW|FlagS|FlagM) == 0 || v&FlagC != 0
		want := mImpliesS && accessImpliesC
		if got := v.Valid(); got != want {
			t.Errorf("Flags(%05b).Valid() = %v, want %v", v, got, want)
		}
	}
}

func TestFlagCodeRoundTrip(t *testing.T) {
	for _, f := range LegalStates() {
		code, err := f.Code()
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if code > 12 {
			t.Fatalf("%s: code %d does not fit 4 bits of 13 states", f, code)
		}
		back, err := FromCode(code)
		if err != nil {
			t.Fatal(err)
		}
		if back != f {
			t.Fatalf("round trip %s -> %d -> %s", f, code, back)
		}
	}
}

func TestFlagCodeRejectsIllegal(t *testing.T) {
	if _, err := (FlagM).Code(); err == nil {
		t.Fatal("M without S encoded")
	}
	if _, err := (FlagR).Code(); err == nil {
		t.Fatal("R without C encoded")
	}
	if _, err := FromCode(13); err == nil {
		t.Fatal("code 13 decoded")
	}
}

func TestFlagSetForcesImplications(t *testing.T) {
	if f := Flags(0).Set(FlagM); f != FlagC|FlagS|FlagM {
		t.Fatalf("Set(M) = %s", f)
	}
	if f := Flags(0).Set(FlagR); f != FlagC|FlagR {
		t.Fatalf("Set(R) = %s", f)
	}
	if f := Flags(0).Set(FlagC); f != FlagC {
		t.Fatalf("Set(C) = %s", f)
	}
	// Property: Set always yields a legal state.
	prop := func(a, b uint8) bool {
		return (Flags(a%32) & legalMask()).Set(Flags(b % 32)).Valid()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// legalMask keeps arbitrary fuzz inputs within the flag bit space.
func legalMask() Flags { return FlagC | FlagR | FlagW | FlagS | FlagM }

func TestFlagPredicates(t *testing.T) {
	f := Flags(0).Set(FlagR)
	if !f.Accessed() || !f.InReadSet() || f.InWriteSet() {
		t.Fatalf("R flags predicates wrong: %s", f)
	}
	f = Flags(0).Set(FlagW)
	if !f.InWriteSet() || f.InReadSet() {
		t.Fatalf("W flags predicates wrong: %s", f)
	}
	f = Flags(0).Set(FlagS)
	if !f.InReadSet() {
		t.Fatalf("S must count as read set: %s", f)
	}
	f = Flags(0).Set(FlagM)
	if !f.InWriteSet() || !f.InReadSet() {
		t.Fatalf("M must count as write set and imply S in read set: %s", f)
	}
	if Flags(FlagC).InReadSet() || Flags(FlagC).InWriteSet() {
		t.Fatal("C alone is neither read nor write set")
	}
}

func TestFlagString(t *testing.T) {
	if got := Flags(0).String(); got != "-----" {
		t.Fatalf("zero flags = %q", got)
	}
	if got := (FlagC | FlagW).String(); got != "C-W--" {
		t.Fatalf("CW = %q", got)
	}
}

func TestPathBasics(t *testing.T) {
	if !RootPath.IsRoot() {
		t.Fatal("RootPath not root")
	}
	p := RootPath.Child(2).Child(5)
	if p.String() != "/2/5" {
		t.Fatalf("path = %q", p.String())
	}
	if p.IsRoot() {
		t.Fatal("child path claims root")
	}
	if !p.Parent().Equal(Path{2}) {
		t.Fatalf("parent = %v", p.Parent())
	}
	if !RootPath.Parent().IsRoot() {
		t.Fatal("parent of root must be root")
	}
	if !p.HasPrefix(Path{2}) || !p.HasPrefix(p) || p.HasPrefix(Path{3}) {
		t.Fatal("HasPrefix wrong")
	}
	q := p.Clone()
	q[0] = 9
	if p[0] != 2 {
		t.Fatal("Clone aliased storage")
	}
}

func TestPathParse(t *testing.T) {
	for _, s := range []string{"/", "/0", "/1/2/3"} {
		p, err := ParsePath(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if p.String() != s {
			t.Fatalf("%q round-tripped to %q", s, p.String())
		}
	}
	if p, err := ParsePath(""); err != nil || !p.IsRoot() {
		t.Fatal("empty string must parse to root")
	}
	for _, s := range []string{"/x", "/-1", "/1//2"} {
		if _, err := ParsePath(s); err == nil {
			t.Fatalf("%q parsed", s)
		}
	}
}

func TestPathEncodeDecode(t *testing.T) {
	prop := func(raw []uint16, depth uint8) bool {
		n := int(depth) % 16
		if n > len(raw) {
			n = len(raw)
		}
		p := make(Path, n)
		for i := 0; i < n; i++ {
			p[i] = int(raw[i])
		}
		enc, err := p.Encode(nil)
		if err != nil {
			return false
		}
		got, rest, err := DecodePath(enc)
		return err == nil && len(rest) == 0 && got.Equal(p)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPathDecodeShort(t *testing.T) {
	if _, _, err := DecodePath(nil); err == nil {
		t.Fatal("decoded empty input")
	}
	if _, _, err := DecodePath([]byte{3, 0, 1}); err == nil {
		t.Fatal("decoded truncated path")
	}
}

func newVersionPage(t *testing.T) *Page {
	t.Helper()
	f := capability.NewFactory(capability.NewPort().Public())
	return &Page{
		IsVersion:  true,
		FileCap:    f.Mint(1),
		VersionCap: f.Mint(2),
		CommitRef:  7,
		TopLock:    capability.NewPort(),
		InnerLock:  capability.NilPort,
		ParentRef:  3,
		RootFlags:  Flags(0).Set(FlagW),
		BaseRef:    9,
		Refs: []Ref{
			{Block: 11, Flags: 0},
			{Block: 12, Flags: Flags(0).Set(FlagR)},
			{Block: 0, Flags: 0}, // hole
		},
		Data: []byte("version page data"),
	}
}

func TestPageEncodeDecodeVersionPage(t *testing.T) {
	p := newVersionPage(t)
	enc, err := p.Encode(4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != p.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(enc), p.EncodedSize())
	}
	// Simulate block zero fill.
	padded := make([]byte, 4096)
	copy(padded, enc)
	got, err := Decode(padded)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsVersion || got.FileCap != p.FileCap || got.VersionCap != p.VersionCap {
		t.Fatal("capabilities lost")
	}
	if got.CommitRef != 7 || got.ParentRef != 3 || got.BaseRef != 9 {
		t.Fatalf("references lost: %+v", got)
	}
	if got.TopLock != p.TopLock || got.InnerLock != capability.NilPort {
		t.Fatal("locks lost")
	}
	if got.RootFlags != p.RootFlags {
		t.Fatal("root flags lost")
	}
	if len(got.Refs) != 3 || got.Refs[1].Flags != p.Refs[1].Flags || got.Refs[1].Block != 12 {
		t.Fatalf("refs lost: %+v", got.Refs)
	}
	if !got.Refs[2].IsNil() {
		t.Fatal("hole lost")
	}
	if !bytes.Equal(got.Data, p.Data) {
		t.Fatal("data lost")
	}
}

func TestPageEncodeDecodePlainPage(t *testing.T) {
	p := &Page{
		BaseRef: 44,
		Refs:    []Ref{{Block: 1, Flags: Flags(0).Set(FlagW)}},
		Data:    bytes.Repeat([]byte{7}, 100),
	}
	enc, err := p.Encode(4096)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.IsVersion {
		t.Fatal("plain page decoded as version page")
	}
	if got.BaseRef != 44 || len(got.Refs) != 1 || !bytes.Equal(got.Data, p.Data) {
		t.Fatalf("round trip lost state: %+v", got)
	}
	// Plain pages are smaller than version pages.
	if p.Overhead() >= newVersionPage(t).Overhead() {
		t.Fatal("plain page overhead should be below version page overhead")
	}
}

func TestPageEncodeRejectsOverflow(t *testing.T) {
	p := &Page{Data: make([]byte, 4096)}
	if _, err := p.Encode(4096); !errors.Is(err, ErrPageFull) {
		t.Fatalf("err = %v, want ErrPageFull", err)
	}
	// MaxPageSize caps even larger blocks.
	p = &Page{Data: make([]byte, MaxPageSize)}
	if _, err := p.Encode(MaxPageSize * 2); !errors.Is(err, ErrPageFull) {
		t.Fatalf("err = %v, want ErrPageFull (32K cap)", err)
	}
}

func TestPageEncodeRejectsBigBlockNum(t *testing.T) {
	p := &Page{Refs: []Ref{{Block: block.MaxNum + 1}}}
	if _, err := p.Encode(4096); err == nil {
		t.Fatal("28-bit block number bound not enforced")
	}
	p = &Page{Refs: []Ref{{Block: block.MaxNum}}}
	if _, err := p.Encode(4096); err != nil {
		t.Fatalf("MaxNum rejected: %v", err)
	}
}

func TestPageDecodeCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"empty":       nil,
		"short":       {pageMagic},
		"bad magic":   bytes.Repeat([]byte{0x00}, 64),
		"bad lengths": append([]byte{pageMagic, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, make([]byte, 8)...),
	}
	for name, src := range cases {
		if _, err := Decode(src); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestPageCapacity(t *testing.T) {
	c := Capacity(4096, 10, false)
	p := &Page{Refs: make([]Ref, 10), Data: make([]byte, c)}
	if !p.Fits(4096) {
		t.Fatal("page at capacity does not fit")
	}
	p.Data = append(p.Data, 0)
	if p.Fits(4096) {
		t.Fatal("page beyond capacity fits")
	}
}

func TestPageClone(t *testing.T) {
	p := newVersionPage(t)
	q := p.Clone()
	q.Refs[0].Block = 99
	q.Data[0] = 'X'
	if p.Refs[0].Block == 99 || p.Data[0] == 'X' {
		t.Fatal("Clone aliased storage")
	}
}

func TestRefTableOps(t *testing.T) {
	p := &Page{Refs: []Ref{{Block: 1}, {Block: 2}}}

	if _, err := p.Ref(2); !errors.Is(err, ErrBadIndex) {
		t.Fatal("out of range Ref accepted")
	}
	if err := p.SetRef(-1, Ref{}); !errors.Is(err, ErrBadIndex) {
		t.Fatal("out of range SetRef accepted")
	}

	if err := p.InsertRef(1, Ref{Block: 9}); err != nil {
		t.Fatal(err)
	}
	want := []block.Num{1, 9, 2}
	for i, w := range want {
		r, _ := p.Ref(i)
		if r.Block != w {
			t.Fatalf("after insert: refs[%d] = %d, want %d", i, r.Block, w)
		}
	}
	if err := p.InsertRef(4, Ref{}); !errors.Is(err, ErrBadIndex) {
		t.Fatal("insert past end accepted")
	}
	if err := p.InsertRef(3, Ref{Block: 5}); err != nil {
		t.Fatal("insert at end rejected")
	}

	if err := p.RemoveRef(0); err != nil {
		t.Fatal(err)
	}
	r, _ := p.Ref(0)
	if r.Block != 9 {
		t.Fatalf("after remove: refs[0] = %d, want 9", r.Block)
	}
	if err := p.RemoveRef(5); !errors.Is(err, ErrBadIndex) {
		t.Fatal("remove out of range accepted")
	}
}

func TestPageRoundTripProperty(t *testing.T) {
	prop := func(base uint32, nrefs uint8, data []byte, flagSeeds []uint8) bool {
		p := &Page{BaseRef: block.Num(base) & block.MaxNum}
		n := int(nrefs) % 32
		for i := 0; i < n; i++ {
			var f Flags
			if i < len(flagSeeds) {
				f = legalFlagStates[int(flagSeeds[i])%13]
			}
			p.Refs = append(p.Refs, Ref{Block: block.Num(i), Flags: f})
		}
		if len(data) > Capacity(4096, n, false) {
			data = data[:Capacity(4096, n, false)]
		}
		p.Data = data
		enc, err := p.Encode(4096)
		if err != nil {
			return false
		}
		got, err := Decode(enc)
		if err != nil {
			return false
		}
		if got.BaseRef != p.BaseRef || len(got.Refs) != len(p.Refs) || !bytes.Equal(got.Data, p.Data) {
			return false
		}
		for i := range p.Refs {
			if got.Refs[i] != p.Refs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVersionPageStringAndRefString(t *testing.T) {
	p := newVersionPage(t)
	if p.String() == "" || !p.Refs[2].IsNil() {
		t.Fatal("String/IsNil broken")
	}
}
