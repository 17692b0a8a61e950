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
	c := f.Register(42)
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

func TestFactoryVerify(t *testing.T) {
	f := NewFactory(NewPort().Public())
	c := f.Register(7)
	if err := f.Verify(c, RightsAll); err != nil {
		t.Fatalf("owner capability rejected: %v", err)
	}
}

func TestFactoryVerifyForged(t *testing.T) {
	f := NewFactory(NewPort().Public())
	c := f.Register(7)

	forged := c
	forged.Check++
	if err := f.Verify(forged, 0); !errors.Is(err, ErrBadCheck) {
		t.Fatalf("forged check accepted: %v", err)
	}

	widened := c
	widened.Rights = RightsAll
	widened.Object = 8 // unknown object
	if err := f.Verify(widened, 0); !errors.Is(err, ErrBadCheck) {
		t.Fatalf("unknown object accepted: %v", err)
	}
}

func TestFactoryRightsWideningDetected(t *testing.T) {
	f := NewFactory(NewPort().Public())
	owner := f.Register(7)
	narrow, err := f.Restrict(owner, RightRead)
	if err != nil {
		t.Fatal(err)
	}
	// Client flips rights bits without the secret: check must fail.
	widened := narrow
	widened.Rights = RightsAll
	if err := f.Verify(widened, 0); !errors.Is(err, ErrBadCheck) {
		t.Fatalf("widened capability accepted: %v", err)
	}
}

func TestFactoryRestrict(t *testing.T) {
	f := NewFactory(NewPort().Public())
	owner := f.Register(9)
	ro, err := f.Restrict(owner, RightRead)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Rights != RightRead {
		t.Fatalf("rights = %v, want read only", ro.Rights)
	}
	if err := f.Verify(ro, RightRead); err != nil {
		t.Fatalf("restricted capability invalid: %v", err)
	}
	if err := f.Verify(ro, RightWrite); !errors.Is(err, ErrRights) {
		t.Fatalf("restricted capability conveyed write: %v", err)
	}
}

func TestFactoryRestrictRequiresValidInput(t *testing.T) {
	f := NewFactory(NewPort().Public())
	owner := f.Register(9)
	bad := owner
	bad.Check ^= 1
	if _, err := f.Restrict(bad, RightRead); !errors.Is(err, ErrBadCheck) {
		t.Fatalf("Restrict accepted forged capability: %v", err)
	}
}

func TestFactoryForget(t *testing.T) {
	f := NewFactory(NewPort().Public())
	c := f.Register(3)
	f.Forget(3)
	if err := f.Verify(c, 0); !errors.Is(err, ErrBadCheck) {
		t.Fatalf("capability survived Forget: %v", err)
	}
}

func TestFactoriesIndependent(t *testing.T) {
	f1 := NewFactory(NewPort().Public())
	f2 := NewFactory(NewPort().Public())
	c := f1.Register(5)
	f2.Register(5)
	if err := f2.Verify(c, 0); !errors.Is(err, ErrBadCheck) {
		t.Fatalf("capability from f1 accepted by f2: %v", err)
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
	c := f.Register(1)
	if c.IsNil() {
		t.Fatal("registered capability is nil")
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
