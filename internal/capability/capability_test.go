package capability

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestNewPortNonNil(t *testing.T) {
	for i := 0; i < 100; i++ {
		if p := NewPort(); p.IsNil() {
			t.Fatal("NewPort returned nil port")
		}
	}
}

func TestNewPortDistinct(t *testing.T) {
	seen := make(map[Port]bool)
	for i := 0; i < 1000; i++ {
		p := NewPort()
		if seen[p] {
			t.Fatalf("duplicate port %v after %d draws", p, i)
		}
		seen[p] = true
	}
}

func TestPortPublicDeterministic(t *testing.T) {
	p := NewPort()
	if p.Public() != p.Public() {
		t.Fatal("Public not deterministic")
	}
	if p.Public() == p {
		t.Fatal("Public should differ from private port")
	}
}

func TestPortPublicOneWay(t *testing.T) {
	// Two distinct private ports must map to distinct public ports
	// (collision would break service identity).
	a, b := NewPort(), NewPort()
	if a.Public() == b.Public() {
		t.Fatal("public port collision")
	}
}

func TestPortString(t *testing.T) {
	if got := Port(0xabcdef123456).String(); got != "abcdef123456" {
		t.Fatalf("String = %q, want abcdef123456", got)
	}
}

func TestRightsHas(t *testing.T) {
	r := RightRead | RightWrite
	if !r.Has(RightRead) || !r.Has(RightWrite) || !r.Has(RightRead|RightWrite) {
		t.Fatal("Has missed granted rights")
	}
	if r.Has(RightCommit) || r.Has(RightRead|RightCommit) {
		t.Fatal("Has granted missing rights")
	}
	if !r.Has(0) {
		t.Fatal("Has(0) must always be true")
	}
}

func TestRightsString(t *testing.T) {
	cases := []struct {
		r    Rights
		want string
	}{
		{0, "-"},
		{RightRead, "r"},
		{RightRead | RightWrite | RightCreate, "rwc"},
		{RightsAll, "rwcmda"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Rights(%08b).String() = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := NewFactory(NewPort().Public())
	c := f.Mint(42)
	enc := c.Encode(nil)
	if len(enc) != EncodedLen {
		t.Fatalf("encoded length %d, want %d", len(enc), EncodedLen)
	}
	got, rest, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("rest = %d bytes, want 0", len(rest))
	}
	if got != c {
		t.Fatalf("round trip mismatch: %v != %v", got, c)
	}
}

func TestDecodeShort(t *testing.T) {
	if _, _, err := Decode(make([]byte, EncodedLen-1)); err == nil {
		t.Fatal("Decode accepted short input")
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	// Any capability with a 24-bit object and 48-bit check round-trips.
	prop := func(port uint64, object uint32, rights uint8, check uint64) bool {
		c := Capability{
			Port:   Port(port & portMask),
			Object: object & 0xffffff,
			Rights: Rights(rights),
			Check:  check & portMask,
		}
		got, rest, err := Decode(c.Encode(nil))
		return err == nil && len(rest) == 0 && got == c
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFactoryVerify checks capabilities of every kind against one
// object's owner capability: the owner and a restriction of it verify,
// a restricted capability conveys only its rights, and every edited
// field — rights, check, object, port — fails the check.
func TestFactoryVerify(t *testing.T) {
	f := NewFactory(NewPort().Public())
	owner := f.Mint(7)
	ro, err := Restrict(owner, owner, RightRead)
	if err != nil {
		t.Fatal(err)
	}
	edit := func(c Capability, fn func(*Capability)) Capability {
		fn(&c)
		return c
	}
	cases := []struct {
		name string
		c    Capability
		need Rights
		want error
	}{
		{"owner", owner, RightsAll, nil},
		{"restricted", ro, RightRead, nil},
		{"restricted-overreach", ro, RightWrite, ErrRights},
		{"widened", edit(ro, func(c *Capability) { c.Rights = RightsAll }), 0, ErrBadCheck},
		{"widened-one-bit", edit(ro, func(c *Capability) { c.Rights |= RightWrite }), 0, ErrBadCheck},
		{"narrowed-without-check", edit(owner, func(c *Capability) { c.Rights = RightRead }), 0, ErrBadCheck},
		{"forged", edit(owner, func(c *Capability) { c.Check++ }), 0, ErrBadCheck},
		{"forged-restricted", edit(ro, func(c *Capability) { c.Check ^= 1 }), 0, ErrBadCheck},
		{"other-object", edit(owner, func(c *Capability) { c.Object = 8 }), 0, ErrBadCheck},
		{"other-object-owner", f.Mint(7), 0, ErrBadCheck},
		{"other-port", edit(owner, func(c *Capability) { c.Port = NewPort().Public() }), 0, ErrBadCheck},
		{"other-port-restricted", edit(ro, func(c *Capability) { c.Port = NewPort().Public() }), 0, ErrBadCheck},
		{"nil", Nil, 0, ErrBadCheck},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Verify(owner, tc.c, tc.need)
			if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("Verify(%v) = %v, want %v", tc.c, err, tc.want)
			}
		})
	}
	if err := Verify(Nil, Nil, 0); !errors.Is(err, ErrBadCheck) {
		t.Fatalf("Verify against no owner = %v, want ErrBadCheck", err)
	}
}

func TestFactoryRestrict(t *testing.T) {
	f := NewFactory(NewPort().Public())
	owner := f.Mint(9)
	rw, err := Restrict(owner, owner, RightRead|RightWrite)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Restrict(owner, rw, RightRead|RightCommit)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Rights != RightRead|RightWrite || ro.Rights != RightRead {
		t.Fatalf("rights = %v then %v, want rw then r", rw.Rights, ro.Rights)
	}
	if direct, _ := Restrict(owner, owner, RightRead); direct != ro {
		t.Fatalf("restricting in two steps gave %+v, in one %+v", ro, direct)
	}
	if ro.Check == owner.Check || ro.Check == rw.Check {
		t.Fatal("a restricted capability carries another capability's check field")
	}
	if err := Verify(owner, ro, RightRead); err != nil {
		t.Fatalf("restricted capability invalid: %v", err)
	}
	if same, _ := Restrict(owner, owner, RightsAll); same != owner {
		t.Fatalf("restricting to every right gave %+v, want the owner", same)
	}
}

func TestFactoryRestrictRequiresValidInput(t *testing.T) {
	f := NewFactory(NewPort().Public())
	owner := f.Mint(9)
	bad := owner
	bad.Check ^= 1
	if _, err := Restrict(owner, bad, RightRead); !errors.Is(err, ErrBadCheck) {
		t.Fatalf("Restrict accepted forged capability: %v", err)
	}
}

func TestNilCapability(t *testing.T) {
	if !Nil.IsNil() {
		t.Fatal("Nil.IsNil() = false")
	}
	if Nil.String() != "cap(nil)" {
		t.Fatalf("Nil.String() = %q", Nil.String())
	}
	f := NewFactory(NewPort().Public())
	c := f.Mint(1)
	if c.IsNil() {
		t.Fatal("minted capability is nil")
	}
}

func TestParsePortStrict(t *testing.T) {
	p := NewPort().Public()
	for _, in := range []string{p.String(), "0000" + p.String()} {
		got, err := ParsePort(in)
		if err != nil || got != p {
			t.Fatalf("ParsePort(%q) = %v, %v; want %v", in, got, err, p)
		}
	}
	for _, in := range []string{
		"",                    // empty
		"00000000000000aZ",    // trailing garbage a %x scan would truncate to 0xa
		"aa bb",               // embedded space
		"0xaa",                // prefix
		"+aa",                 // sign
		"00000000000000000aa", // over-long
	} {
		if got, err := ParsePort(in); err == nil {
			t.Fatalf("ParsePort(%q) = %v, want an error", in, got)
		}
	}
}
