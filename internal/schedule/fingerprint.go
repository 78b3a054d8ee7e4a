package schedule

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Fingerprint returns a hex SHA-256 digest over everything that determines a
// plan's execution semantics: dimensions, the full op stream (kinds, matrix
// and diagonal entries bit-for-bit, positions, permutations, stage indices)
// and the qubit→bit-location maps. Checkpoint manifests record it so a
// resumed run can prove the snapshot on disk belongs to the plan it is about
// to continue — two circuits (or two schedules of the same circuit) never
// share a fingerprint, so a stale checkpoint directory can never be replayed
// into the wrong run.
//
// The digest walks the struct directly rather than hashing a gob encoding:
// gob serializes Stats.ClusterSizes (a map) in nondeterministic order, and
// the fingerprint must be stable across processes.
func (p *Plan) Fingerprint() string { return p.digest("qusim-plan-fp-v1", true) }

// StructureFingerprint digests only what determines a plan's *access
// structure* — dimensions, op kinds, positions, permutations, stage
// indices and matrix/diagonal shapes — while ignoring the matrix and
// diagonal *values*. Two plans of the same parameterized circuit at
// different gate angles (a QAOA/VQE sweep) share a structure fingerprint
// even though their full Fingerprints differ. Nothing in the run paths
// keys on it (AccessMap cuts afresh); the pinned-plan tests compare it
// across kernel sets and price lists.
//
//qlint:ignore deadcode the arch-independent plan pin of TestPaperCostsReproduceParentPlans and verify's plan tests
func (p *Plan) StructureFingerprint() string { return p.digest("qusim-plan-structfp-v1", false) }

// digest hashes the plan under tag, the matrix and diagonal entries
// bit for bit when values is set and only their counts otherwise.
func (p *Plan) digest(tag string, values bool) string {
	h := sha256.New()
	var scratch [8]byte
	wi := func(x int) {
		binary.LittleEndian.PutUint64(scratch[:], uint64(int64(x)))
		h.Write(scratch[:])
	}
	wis := func(xs []int) {
		wi(len(xs))
		for _, x := range xs {
			wi(x)
		}
	}
	wcs := func(xs []complex128) {
		wi(len(xs))
		for _, x := range xs {
			if values {
				wi(int(math.Float64bits(real(x))))
				wi(int(math.Float64bits(imag(x))))
			}
		}
	}

	h.Write([]byte(tag))
	wi(p.N)
	wi(p.L)
	wis(p.InitialPos)
	wis(p.FinalPos)
	wi(len(p.Ops))
	for i := range p.Ops {
		op := &p.Ops[i]
		wi(int(op.Kind))
		wi(op.Stage)
		wis(op.Positions)
		wis(op.Perm)
		wis(op.LocalPos)
		wis(op.GlobalPos)
		wcs(op.Matrix.Data)
		wcs(op.Diag)
	}
	return hex.EncodeToString(h.Sum(nil))
}
