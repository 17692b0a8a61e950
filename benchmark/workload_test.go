package main

import (
	"fmt"
	"testing"
)

func opsOf(spec Spec, seed uint64, client, n int) []string {
	g := NewGen(spec, seed, client)
	out := make([]string, n)
	for i := range out {
		out[i] = g.Next().String()
	}
	return out
}

// The same seed must replay the same operations; another seed, another
// client or another workload must not.
func TestGenSeeded(t *testing.T) {
	for _, spec := range Specs {
		a, b := opsOf(spec, 7, 0, 300), opsOf(spec, 7, 0, 300)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("%s: seed 7 replayed differently", spec.Name)
		}
		// commit_hot's operations all target file 0 but differ in pages;
		// bulk_write's differ only in the file picked.
		if c := opsOf(spec, 8, 0, 300); fmt.Sprint(a) == fmt.Sprint(c) {
			t.Errorf("%s: seeds 7 and 8 generate the same operations", spec.Name)
		}
		if c := opsOf(spec, 7, 1, 300); fmt.Sprint(a) == fmt.Sprint(c) {
			t.Errorf("%s: clients 0 and 1 generate the same operations", spec.Name)
		}
	}
}

// Unshared workloads must never hand two clients the same file.
func TestGenPartition(t *testing.T) {
	for _, spec := range Specs {
		if spec.Shared {
			continue
		}
		for c := 0; c < Clients; c++ {
			g := NewGen(spec, 1, c)
			for i := 0; i < 500; i++ {
				if op := g.Next(); op.File%Clients != c {
					t.Fatalf("%s: client %d drew file %d", spec.Name, c, op.File)
				}
			}
		}
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	want := Payload{File: 3, Page: 9, Client: 1, Counter: 42}
	b := EncodePayload(want)
	got, err := DecodePayload(b)
	if err != nil || got != want {
		t.Fatalf("round trip: got %+v, %v", got, err)
	}
	b[100] ^= 1
	if _, err := DecodePayload(b); err == nil {
		t.Fatal("a flipped bit passed the checksum")
	}
	if _, err := DecodePayload(b[:10]); err == nil {
		t.Fatal("a short page decoded")
	}
}
