// komodo-verify runs the reproduction's verification suites and reports
// like a proof run: PageDB invariant preservation over random SMC traces
// (the paper's §5.2 obligations), refinement of the concrete monitor
// against the functional specification (the paper's implementation proof),
// the noninterference bisimulations (Theorem 6.1, confidentiality and
// integrity), and the batched-signing Merkle inclusion proofs
// (docs/BATCHING.md).
//
// With -receipt it instead verifies one saved batch receipt offline:
//
//	curl -s -d @doc.bin $URL/v1/notary/sign > receipt.json
//	komodo-verify -receipt receipt.json -doc doc.bin
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/batch"
	"repro/internal/board"
	"repro/internal/kapi"
	"repro/internal/kasm"
	"repro/internal/monitor"
	"repro/internal/ni"
	"repro/internal/nwos"
	"repro/internal/pagedb"
	"repro/internal/refine"
	"repro/internal/server"
	"repro/internal/sha2"
	"repro/internal/spec"
)

func main() {
	trials := flag.Int("trials", 25, "random trace trials per suite")
	steps := flag.Int("steps", 150, "SMCs per random trace")
	seed := flag.Int64("seed", 42, "PRNG seed for trace generation")
	receipt := flag.String("receipt", "", "verify one saved /v1/notary/sign batch receipt (JSON file) and exit")
	docFile := flag.String("doc", "", "with -receipt: the signed document, to also check the leaf binding")
	flag.Parse()

	if *receipt != "" {
		if err := verifyReceiptFile(*receipt, *docFile); err != nil {
			fmt.Fprintln(os.Stderr, "komodo-verify:", err)
			os.Exit(1)
		}
		return
	}

	total, failed := 0, 0
	report := func(name string, err error) {
		total++
		if err != nil {
			failed++
			fmt.Printf("  FAIL  %s: %v\n", name, err)
		} else {
			fmt.Printf("  ok    %s\n", name)
		}
	}

	fmt.Println("== PageDB invariants (spec-level, §5.2) ==")
	report("random SMC traces preserve Validate()", invariantTraces(*trials, *steps, *seed))

	fmt.Println("== Refinement (concrete monitor ⊑ specification) ==")
	report("random OS traces, checked per SMC", refinementTraces(*trials, *steps, *seed))
	report("enclave lifecycle, checked per SMC", refinementLifecycle(false))
	report("enclave lifecycle, optimised crossings (§8.1)", refinementLifecycle(true))

	fmt.Println("== Noninterference (Theorem 6.1) ==")
	report("confidentiality bisimulation (≈adv)", confidentiality())
	report("integrity bisimulation (≈enc)", integrity())

	fmt.Println("== Batch inclusion proofs (docs/BATCHING.md) ==")
	report("every leaf include-proves, tampering fails closed", inclusionProofs(*trials, *seed))
	report("coalesced receipts verify, nonce tamper fails closed", coalescedReceipts(*trials, *seed))

	fmt.Printf("\n%d checks, %d failures\n", total, failed)
	if failed > 0 {
		os.Exit(1)
	}
}

// verifyReceiptFile checks a saved batch receipt offline: the inclusion
// proof against the enclave-signed root and the digest binding of (root,
// counter); with a document file, the leaf recomputation too.
func verifyReceiptFile(path, docPath string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var nr server.NotaryResponse
	if err := json.Unmarshal(raw, &nr); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var doc []byte
	if docPath != "" {
		if doc, err = os.ReadFile(docPath); err != nil {
			return err
		}
	}
	if err := server.VerifyBatchReceipt(nr, doc); err != nil {
		return fmt.Errorf("receipt %s: %w", path, err)
	}
	bound := "root+counter binding"
	if doc != nil {
		bound = "leaf, root+counter binding"
	}
	shared := ""
	if nr.Batch.Coalesced > 1 {
		shared = fmt.Sprintf(" (leaf shared by %d requests)", nr.Batch.Coalesced)
	}
	fmt.Printf("receipt ok: counter %d, leaf %d of %d%s, %s verified\n",
		nr.Counter, nr.Batch.LeafIndex, nr.Batch.BatchSize, shared, bound)
	return nil
}

// coalescedReceipts exercises the cross-request dedup receipt shape: a
// batch where several requests share one leaf (identical doc and tenant,
// the leaf owner's nonce folded into every waiter's receipt) must hand
// each waiter an offline-verifiable proof, and a receipt whose nonce is
// tampered — or swapped for another leaf's — must fail closed.
func coalescedReceipts(trials int, seed int64) error {
	rnd := rand.New(rand.NewSource(seed ^ 0x5eed))
	for trial := 0; trial < trials; trial++ {
		n := 2 + rnd.Intn(16)
		docs := make([][]byte, n)
		nonces := make([][batch.NonceSize]byte, n)
		waiters := make([]int, n)
		leaves := make([][8]uint32, n)
		for i := range leaves {
			docs[i] = []byte(fmt.Sprintf("trial %d doc %d", trial, i))
			rnd.Read(nonces[i][:])
			waiters[i] = 1 + rnd.Intn(4)
			h := sha2.New()
			h.Write(docs[i])
			leaves[i] = batch.LeafHash(h.SumWords(), "tenant", nonces[i][:])
		}
		root := batch.Root(leaves)
		counter := uint32(1 + trial)
		for i := range leaves {
			path := batch.Path(leaves, i)
			hexPath := make([]string, len(path))
			for j, p := range path {
				hexPath[j] = server.EncodeWords(p)
			}
			// Every waiter on the leaf gets the same proof with the
			// leaf's nonce — exactly what the server hands coalesced
			// requests.
			for w := 0; w < waiters[i]; w++ {
				nr := server.NotaryResponse{
					Counter: counter,
					Digest:  server.EncodeWords(batch.RootDigest(root, counter)),
					Batch: &server.BatchProof{
						Root:      server.EncodeWords(root),
						Leaf:      server.EncodeWords(leaves[i]),
						LeafIndex: i,
						BatchSize: n,
						Path:      hexPath,
						Tenant:    "tenant",
						Nonce:     fmt.Sprintf("%x", nonces[i][:]),
						Coalesced: waiters[i],
					},
				}
				if err := server.VerifyBatchReceipt(nr, docs[i]); err != nil {
					return fmt.Errorf("trial %d: waiter %d of leaf %d: %v", trial, w, i, err)
				}
				var bad [batch.NonceSize]byte
				copy(bad[:], nonces[i][:])
				bad[rnd.Intn(batch.NonceSize)] ^= 1 << uint(rnd.Intn(8))
				nr.Batch.Nonce = fmt.Sprintf("%x", bad[:])
				if server.VerifyBatchReceipt(nr, docs[i]) == nil {
					return fmt.Errorf("trial %d: leaf %d verified with tampered nonce", trial, i)
				}
				nr.Batch.Nonce = fmt.Sprintf("%x", nonces[(i+1)%n][:])
				if server.VerifyBatchReceipt(nr, docs[i]) == nil {
					return fmt.Errorf("trial %d: leaf %d verified with leaf %d's nonce", trial, i, (i+1)%n)
				}
			}
		}
	}
	return nil
}

// inclusionProofs exercises the Merkle machinery the way an auditor
// would: random trees of every small size, every leaf's audit path must
// verify against the root, and any single tampering — leaf bit, path
// bit, wrong index, wrong root — must fail closed.
func inclusionProofs(trials int, seed int64) error {
	rnd := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		n := 1 + rnd.Intn(64)
		leaves := make([][8]uint32, n)
		for i := range leaves {
			h := sha2.New()
			h.Write([]byte(fmt.Sprintf("trial %d leaf %d", trial, i)))
			var nonce [batch.NonceSize]byte
			rnd.Read(nonce[:])
			leaves[i] = batch.LeafHash(h.SumWords(), fmt.Sprintf("tenant-%d", i%3), nonce[:])
		}
		root := batch.Root(leaves)
		for i := range leaves {
			path := batch.Path(leaves, i)
			if !batch.VerifyInclusion(leaves[i], i, n, path, root) {
				return fmt.Errorf("trial %d: leaf %d/%d does not include-prove", trial, i, n)
			}
			// Tampering must fail closed.
			bad := leaves[i]
			bad[rnd.Intn(8)] ^= 1 << uint(rnd.Intn(32))
			if batch.VerifyInclusion(bad, i, n, path, root) {
				return fmt.Errorf("trial %d: tampered leaf %d verified", trial, i)
			}
			badRoot := root
			badRoot[rnd.Intn(8)] ^= 1 << uint(rnd.Intn(32))
			if batch.VerifyInclusion(leaves[i], i, n, path, badRoot) {
				return fmt.Errorf("trial %d: leaf %d verified against tampered root", trial, i)
			}
			if len(path) > 0 {
				badPath := append([][8]uint32(nil), path...)
				j := rnd.Intn(len(badPath))
				badPath[j][rnd.Intn(8)] ^= 1 << uint(rnd.Intn(32))
				if batch.VerifyInclusion(leaves[i], i, n, badPath, root) {
					return fmt.Errorf("trial %d: leaf %d verified with tampered path", trial, i)
				}
			}
			if wrong := (i + 1) % n; wrong != i {
				if batch.VerifyInclusion(leaves[i], wrong, n, path, root) {
					return fmt.Errorf("trial %d: leaf %d verified at wrong index %d", trial, i, wrong)
				}
			}
		}
	}
	return nil
}

func invariantTraces(trials, steps int, seed int64) error {
	p := spec.Params{
		NPages:       32,
		InsecureBase: 0x8000_0000,
		InsecureSize: 16 << 20,
		Rand:         func() uint32 { return 4 },
	}
	rnd := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		d := pagedb.New(p.NPages)
		for s := 0; s < steps; s++ {
			req := randomSMC(rnd, p)
			nd, _, _ := spec.ApplySMC(p, d, req)
			if err := nd.Validate(); err != nil {
				return fmt.Errorf("trial %d step %d (call %d): %w", trial, s, req.Call, err)
			}
			d = nd
		}
	}
	return nil
}

func randomSMC(rnd *rand.Rand, p spec.Params) spec.SMCRequest {
	calls := []uint32{
		kapi.SMCGetPhysPages, kapi.SMCInitAddrspace, kapi.SMCInitThread,
		kapi.SMCInitL2PTable, kapi.SMCAllocSpare, kapi.SMCMapSecure,
		kapi.SMCMapInsecure, kapi.SMCFinalise, kapi.SMCStop, kapi.SMCRemove,
	}
	req := spec.SMCRequest{Call: calls[rnd.Intn(len(calls))]}
	pg := func() uint32 { return uint32(rnd.Intn(p.NPages + 2)) }
	va := func() uint32 {
		return uint32(kapi.NewMapping(uint32(rnd.Intn(8))*0x1000, rnd.Intn(2) == 0, rnd.Intn(2) == 0))
	}
	insec := p.InsecureBase + uint32(rnd.Intn(16))*0x1000
	switch req.Call {
	case kapi.SMCInitAddrspace, kapi.SMCAllocSpare:
		req.Args = [4]uint32{pg(), pg()}
	case kapi.SMCInitThread:
		req.Args = [4]uint32{pg(), pg(), rnd.Uint32() % (1 << 30)}
	case kapi.SMCInitL2PTable:
		req.Args = [4]uint32{pg(), pg(), uint32(rnd.Intn(300))}
	case kapi.SMCMapSecure:
		var c [1024]uint32
		c[0] = rnd.Uint32()
		req.Contents = &c
		req.Args = [4]uint32{pg(), pg(), va(), insec}
	case kapi.SMCMapInsecure:
		req.Args = [4]uint32{pg(), va(), insec}
	default:
		req.Args = [4]uint32{pg()}
	}
	return req
}

func refinementTraces(trials, steps int, seed int64) error {
	rnd := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		plat, err := board.Boot(board.Config{Seed: uint64(trial + 1)})
		if err != nil {
			return err
		}
		chk := refine.New(plat.Monitor)
		os := nwos.New(plat.Machine, chk, plat.Monitor.NPages())
		p := refine.SpecParams(plat.Monitor)
		for s := 0; s < steps; s++ {
			req := randomSMC(rnd, p)
			if req.Call == kapi.SMCMapSecure && req.Contents != nil {
				// Stage the random contents in the insecure source page
				// so the concrete monitor reads the same snapshot.
				if err := os.WriteInsecure(req.Args[3], req.Contents[:8]); err != nil {
					return err
				}
			}
			if _, _, err := chk.SMC(req.Call, req.Args[0], req.Args[1], req.Args[2], req.Args[3]); err != nil {
				return fmt.Errorf("trial %d step %d: %w", trial, s, err)
			}
		}
	}
	return nil
}

func refinementLifecycle(optimised bool) error {
	plat, err := board.Boot(board.Config{Seed: 9, Monitor: monitor.Config{Optimised: optimised}})
	if err != nil {
		return err
	}
	chk := refine.New(plat.Monitor)
	osm := nwos.New(plat.Machine, chk, plat.Monitor.NPages())
	for _, g := range []kasm.Guest{
		kasm.ExitConst(7), kasm.AddArgs(), kasm.StoreLoad(), kasm.GetRandom(),
		kasm.AttestOnce(), kasm.VerifyOnce(), kasm.DynAlloc(), kasm.DynUnmap(),
		kasm.Faulter(kasm.FaultWriteRO), kasm.Faulter(kasm.FaultUnmapped),
	} {
		img, err := g.Image()
		if err != nil {
			return err
		}
		enc, err := osm.BuildEnclave(img)
		if err != nil {
			return err
		}
		var args []uint32
		if len(enc.Spares) > 0 {
			args = []uint32{uint32(enc.Spares[0])}
		}
		if _, _, err := osm.Enter(enc, args...); err != nil {
			return err
		}
		if err := osm.Destroy(enc); err != nil {
			return err
		}
	}
	// Suspend/resume path.
	img, _ := kasm.CountTo().Image()
	enc, err := osm.BuildEnclave(img)
	if err != nil {
		return err
	}
	plat.Machine.ScheduleIRQ(500)
	if e, _, err := osm.Enter(enc, 1_000_000); err != nil || e != kapi.ErrInterrupted {
		return fmt.Errorf("suspend: %v %v", err, e)
	}
	if e, _, err := osm.Resume(enc); err != nil || e != kapi.ErrSuccess {
		return fmt.Errorf("resume: %v %v", err, e)
	}
	return nil
}

func confidentiality() error {
	pair, err := ni.NewPair(101, board.Config{})
	if err != nil {
		return err
	}
	vImg, _ := kasm.ComputeOnSecret().Image()
	victim, err := pair.BuildBoth(vImg)
	if err != nil {
		return err
	}
	cImg, _ := kasm.Colluder().Image()
	colluder, err := pair.BuildBoth(cImg)
	if err != nil {
		return err
	}
	secretPage := victim.Data[len(victim.Data)-1]
	if err := pair.PokeSecret(secretPage, 0x1111, 0x2222); err != nil {
		return err
	}
	steps := []struct {
		name string
		act  func(w *ni.World) ([]uint32, error)
	}{
		{"enter-victim", func(w *ni.World) ([]uint32, error) {
			e, v, err := w.OS.Enter(victim)
			return []uint32{uint32(e), v}, err
		}},
		{"enter-colluder", func(w *ni.World) ([]uint32, error) {
			e, v, err := w.OS.Enter(colluder)
			return []uint32{uint32(e), v}, err
		}},
		{"probe-remove", func(w *ni.World) ([]uint32, error) {
			e, v, err := w.Chk.SMC(kapi.SMCRemove, uint32(secretPage))
			return []uint32{uint32(e), v}, err
		}},
	}
	for _, s := range steps {
		if err := pair.Step(s.name, s.act); err != nil {
			return err
		}
		if err := pair.CheckAdv(colluder.AS); err != nil {
			return fmt.Errorf("after %s: %w", s.name, err)
		}
	}
	return nil
}

func integrity() error {
	pair, err := ni.NewPair(103, board.Config{})
	if err != nil {
		return err
	}
	tImg, _ := kasm.IntegrityVictim().Image()
	trusted, err := pair.BuildBoth(tImg)
	if err != nil {
		return err
	}
	uImg, _ := kasm.UntrustedReader().Image()
	untrusted, err := pair.BuildBoth(uImg)
	if err != nil {
		return err
	}
	pair.A.OS.WriteInsecure(untrusted.SharedPA[0], []uint32{0xaaaa})
	pair.B.OS.WriteInsecure(untrusted.SharedPA[0], []uint32{0xbbbb})
	for _, w := range []*ni.World{pair.A, pair.B} {
		if _, _, err := w.OS.Enter(untrusted); err != nil {
			return err
		}
	}
	if err := pair.CheckEnc(trusted.AS); err != nil {
		return err
	}
	for _, w := range []*ni.World{pair.A, pair.B} {
		if _, _, err := w.OS.Enter(trusted); err != nil {
			return err
		}
	}
	return pair.CheckEnc(trusted.AS)
}
