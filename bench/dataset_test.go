package main

import (
	"bytes"
	"testing"
)

func TestDatasetDeterministicPerSeed(t *testing.T) {
	a, err := genDataset(7, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genDataset(7, 32)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genDataset(8, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.keys {
		if a.keys[i].name != b.keys[i].name || !bytes.Equal(a.keys[i].raw, b.keys[i].raw) {
			t.Fatalf("key %d differs between two generations of seed 7", i)
		}
		if bytes.Equal(a.keys[i].raw, c.keys[i].raw) {
			t.Errorf("key %d is identical under seeds 7 and 8", i)
		}
	}
}

func TestDatasetShape(t *testing.T) {
	ds, err := genDataset(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	noise, wide := 0, 0
	for i := range ds.keys {
		k := &ds.keys[i]
		if len(k.raw) != rawKeyBytes || k.nvals*(k.width/8) != rawKeyBytes {
			t.Fatalf("key %d: %d raw bytes, %d values of %d bits", i, len(k.raw), k.nvals, k.width)
		}
		if want := (i/8)%4 == 3; (k.width == 64) != want {
			t.Errorf("key %d: width %d", i, k.width)
		}
		if k.noise != (i%8 == 7) {
			t.Errorf("key %d: noise = %v", i, k.noise)
		}
		if k.noise {
			noise++
		}
		if k.width == 64 {
			wide++
		}
	}
	if noise != 8 || wide != 16 {
		t.Errorf("64 keys hold %d noise and %d fp64 keys, want 8 and 16", noise, wide)
	}
	if ds.keys[0].name != "k-000000" || ds.keys[63].name != "k-000063" {
		t.Errorf("key names %q .. %q", ds.keys[0].name, ds.keys[63].name)
	}
}

func TestCheckBound(t *testing.T) {
	ds, err := genDataset(1, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 24} { // one fp32 key, one fp64 key
		k := &ds.keys[i]
		if _, n, ok := k.checkBound(k.raw, 1.0/32); !ok || n == 0 {
			t.Errorf("key %d: its own payload is out of bound", i)
		}
		if _, _, ok := k.checkBound(k.raw[:len(k.raw)-8], 1.0/32); ok {
			t.Errorf("key %d: a short payload passed", i)
		}
		bad := append([]byte(nil), k.raw...)
		for j := 0; j < 8; j++ { // first value of either width becomes 0
			bad[j] = 0
		}
		if _, _, ok := k.checkBound(bad, 1.0/32); ok {
			t.Errorf("key %d: a zeroed value passed the bound", i)
		}
	}
}
