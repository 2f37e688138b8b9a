package main

import (
	"bytes"
	"testing"
)

// sequence draws n requests from a fresh generator.
func sequence(w workload, seed int64, client, n int) []request {
	g := newGenerator(w, seed, client, newCorpus(seed))
	out := make([]request, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func sameRequests(a, b []request) bool {
	for i := range a {
		if a[i].nonce != b[i].nonce || !bytes.Equal(a[i].doc, b[i].doc) || a[i].rank != b[i].rank {
			return false
		}
	}
	return true
}

func TestGeneratorsAreSeeded(t *testing.T) {
	for name, w := range workloads {
		a := sequence(w, 7, 0, 64)
		if !sameRequests(a, sequence(w, 7, 0, 64)) {
			t.Errorf("%s: the same seed gave different requests", name)
		}
		if sameRequests(a, sequence(w, 8, 0, 64)) {
			t.Errorf("%s: seeds 7 and 8 gave the same requests", name)
		}
		if sameRequests(a, sequence(w, 7, 1, 64)) {
			t.Errorf("%s: clients 0 and 1 drew the same requests", name)
		}
	}
}

func TestGeneratedInputsMatchTheWorkloads(t *testing.T) {
	for _, r := range sequence(workloads["attest"], 1, 0, 100) {
		if len(r.nonce) != 2*nonceBytes || r.doc != nil {
			t.Fatalf("attest request %+v", r)
		}
	}
	for _, r := range sequence(workloads["sign-durable"], 1, 0, 1000) {
		if len(r.doc) < minDoc || len(r.doc) > maxDoc || r.rank != -1 {
			t.Fatalf("sign-durable document of %d bytes, rank %d", len(r.doc), r.rank)
		}
	}
	top := 0
	reqs := sequence(workloads["sign-batched"], 1, 0, 10000)
	for _, r := range reqs {
		if r.rank < 0 || r.rank >= corpusSize || len(r.doc) < minDoc || len(r.doc) > maxDoc {
			t.Fatalf("sign-batched rank %d, document of %d bytes", r.rank, len(r.doc))
		}
		if r.rank == 0 {
			top++
		}
	}
	// Zipf s=1.2, v=1 over 256 ranks puts 1/Σ k^-1.2, about a quarter,
	// of the draws on rank 0.
	if share := float64(top) / float64(len(reqs)); share < 0.22 || share > 0.29 {
		t.Errorf("rank-0 share %.3f, want about 0.25", share)
	}
}
